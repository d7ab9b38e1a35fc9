//! The cycle-level core simulator: decoupled frontend (branch-prediction
//! pipeline → FTQ → instruction-fetch pipeline with PFC) plus a
//! simplified out-of-order backend.
//!
//! Per-cycle stage order (reverse pipeline, so state flows one stage per
//! cycle): resolve → retire → dispatch → fetch → predict → prefetch.
//!
//! The frontend runs on its *predicted* path. Because the synthetic
//! program provides a full code image, wrong-path fetch, pre-decode, and
//! PFC all operate on real instruction bytes; an oracle window over the
//! committed stream tags on-path work and supplies resolution outcomes
//! (see `DESIGN.md` §4).

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

use crate::backend::{DataAddressGen, InFlight, UnresolvedBranch};
use crate::config::CoreConfig;
use crate::dists::SimDists;
use crate::ftq::{BranchId, BranchSlab, FillState, Ftq, FtqEntry, SlotBranch};
use crate::hist::HistState;
use crate::meta::{self, StaticMeta};
use crate::oracle::Oracle;
use crate::predictors::Predictors;
use crate::probe::ProbeTable;
use crate::stats::{SimStats, StallReason};
use fdip_bpred::{HistoryPolicy, IttagePrediction, TagePrediction};
use fdip_mem::{FillSrc, Hierarchy};
use fdip_prefetch::Prefetcher;
use fdip_program::{ExecutionEngine, Program};
use fdip_trace::{TraceEventKind, Tracer};
use fdip_types::{Addr, BranchKind, Cycle, INSTR_BYTES};
use std::collections::VecDeque;

/// Slots in the prefetch re-issue (churn) filter — its hard memory cap.
const REISSUE_FILTER_SLOTS: usize = 4096;

/// Cycles a prefetched line stays suppressed in the re-issue filter.
const REISSUE_WINDOW: Cycle = 768;

/// The assembled core simulator for one workload.
pub struct Simulator<'p> {
    cfg: CoreConfig,
    oracle: Oracle<'p>,
    preds: Predictors,
    mem: Hierarchy,
    prefetcher: Prefetcher,
    ftq: Ftq,
    /// The branch records the FTQ, `inflight` and `unresolved` refer to.
    slab: BranchSlab,
    /// Fetched instructions in program order: the ROB (the first
    /// `dispatched`), then the decode queue.
    inflight: VecDeque<InFlight>,
    dispatched: usize,
    unresolved: VecDeque<UnresolvedBranch>,
    /// Speculative history at the prediction frontier.
    hist: HistState,
    pred_pc: Addr,
    pred_on_path: bool,
    pred_seq: u64,
    pred_stall_until: Cycle,
    /// Bucket a `pred_stall_until` window charges to once its BTB-latency
    /// prefix elapses ([`StallReason::Redirect`] or
    /// [`StallReason::PfcRestream`]).
    stall_src: StallReason,
    /// End of the BTB-latency prefix of the current redirect window;
    /// cycles before this charge to [`StallReason::PredLatency`].
    stall_btb_until: Cycle,
    /// Bucket charged last cycle (edge detector for the tracer's
    /// `StallTransition` events).
    last_stall: StallReason,
    trace: Tracer,
    retire_seq: u64,
    now: Cycle,
    next_id: u64,
    data_gen: DataAddressGen,
    /// Flat static-instruction metadata (the hot-path view of the code
    /// image and behaviour models).
    meta: StaticMeta,
    /// Per image slot, one bit: does an idealized ("perfect") BTB hold
    /// this branch? Real BTBs only ever allocate branches that are taken
    /// at least once, so never-taken conditionals stay undetectable even
    /// under a perfect BTB (§VI-A). Derived lazily from [`StaticMeta`];
    /// empty (no allocation) unless `cfg.perfect_btb`.
    perfect_btb_bits: Vec<u64>,
    pf_queue: VecDeque<u64>,
    pf_scratch: Vec<u64>,
    /// Recently-issued prefetch lines -> issue cycle (churn filter).
    /// Only prefetchers with a re-issue filter allocate one.
    pf_recent: Option<ProbeTable>,
    stats: SimStats,
    dists: SimDists,
    /// Cycles at each FTQ occupancy since the last fold into
    /// `dists.ftq_occupancy` (see [`Simulator::fold_cycle_counts`]).
    ftq_occupancy_cycles: Vec<u64>,
    /// Cycles at each decode-queue fill since the last fold into
    /// `dists.decode_queue_fill`.
    decode_fill_cycles: Vec<u64>,
}

impl<'p> Simulator<'p> {
    /// Builds a simulator positioned at the program entry.
    ///
    /// The LLC is pre-warmed with the code image, modelling the paper's
    /// 50M-instruction warm-up after which the instruction footprint is
    /// LLC-resident (DESIGN.md §2).
    pub fn new(cfg: CoreConfig, program: &'p Program, seed: u64) -> Self {
        let preds = Predictors::new(&cfg);
        let hist = HistState::new(&preds.plan);
        let backend = cfg.backend;
        let mut mem = Hierarchy::new(cfg.mem);
        let base_line = program.image().base().line_number();
        let end_line = (program.image().base() + program.image().footprint_bytes()).line_number();
        mem.prewarm_llc_instr(base_line..=end_line);
        let meta = StaticMeta::new(program);
        let mut preds = preds;
        // Functional warm-up: replay the committed stream architecturally
        // and train the BTB, as ChampSim's long warm-up does. Only
        // branches touch the BTB, so the engine skips straight-line runs.
        if cfg.func_warmup > 0 {
            let allocate_not_taken = cfg.policy.allocate_not_taken();
            ExecutionEngine::new(program, seed).advance(cfg.func_warmup, |d| {
                let Some(kind) = d.kind.branch_kind() else {
                    return;
                };
                if d.taken {
                    preds.btb.insert(d.pc, kind, d.next_pc);
                } else if allocate_not_taken {
                    if let Some(t) = meta.static_target_at(d.pc) {
                        preds.btb.insert(d.pc, kind, t);
                    }
                }
            });
        }
        let perfect_btb_bits = if cfg.perfect_btb {
            meta.perfect_btb_bits()
        } else {
            Vec::new()
        };
        let prefetcher = cfg.prefetcher.build();
        let pf_recent = prefetcher
            .has_reissue_filter()
            .then(|| ProbeTable::new(REISSUE_FILTER_SLOTS));
        Simulator {
            oracle: Oracle::new(ExecutionEngine::new(program, seed)),
            mem,
            prefetcher,
            ftq: Ftq::new(cfg.ftq_entries),
            slab: BranchSlab::default(),
            inflight: VecDeque::with_capacity(backend.rob_size + backend.decode_queue),
            dispatched: 0,
            unresolved: VecDeque::new(),
            hist,
            pred_pc: program.entry(),
            pred_on_path: true,
            pred_seq: 0,
            pred_stall_until: 0,
            stall_src: StallReason::Redirect,
            stall_btb_until: 0,
            last_stall: StallReason::Committing,
            trace: Tracer::disabled(),
            retire_seq: 0,
            now: 0,
            next_id: 0,
            data_gen: DataAddressGen::new(
                program.image().len(),
                backend.data_hot_bytes,
                backend.data_total_bytes,
                backend.data_hot_pct,
            ),
            pf_queue: VecDeque::new(),
            pf_scratch: Vec::new(),
            pf_recent,
            stats: SimStats::default(),
            dists: SimDists::new(),
            ftq_occupancy_cycles: vec![0; cfg.ftq_entries + 1],
            decode_fill_cycles: vec![0; backend.decode_queue + 1],
            meta,
            perfect_btb_bits,
            preds,
            cfg,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &CoreConfig {
        &self.cfg
    }

    /// Words allocated for the perfect-BTB lookup bitset — `0` unless
    /// the configuration enables `perfect_btb` (the lookup is derived
    /// lazily from [`StaticMeta`], so ordinary configurations pay
    /// nothing for it).
    pub fn perfect_btb_table_words(&self) -> usize {
        self.perfect_btb_bits.capacity()
    }

    /// Runs until `warmup + measure` instructions have retired and
    /// returns the statistics of the measurement interval only.
    ///
    /// # Panics
    ///
    /// Panics if the core deadlocks (a liveness bug) — no forward
    /// progress over a very large cycle budget.
    pub fn run(&mut self, warmup: u64, measure: u64) -> SimStats {
        self.run_detailed(warmup, measure).0
    }

    /// Like [`Simulator::run`], but also returns the distribution
    /// telemetry (histograms and sampled IPC) of the measurement
    /// interval. Warm-up is excluded by clearing the distributions at
    /// the measurement boundary.
    pub fn run_detailed(&mut self, warmup: u64, measure: u64) -> (SimStats, SimDists) {
        let (delta, dists) = self.run_detailed_unchecked(warmup, measure);
        // Cycle-accounting invariant: every measured cycle lands in
        // exactly one stall bucket.
        assert_eq!(
            delta.stall.sum(),
            delta.cycles,
            "stall buckets must partition the measured cycles"
        );
        (delta, dists)
    }

    /// [`Simulator::run_detailed`] without the stall-partition assertion
    /// — the checked-run path (`fdip_sim::check`) turns violations into
    /// data instead of a panic.
    pub fn run_detailed_unchecked(&mut self, warmup: u64, measure: u64) -> (SimStats, SimDists) {
        self.run_until_retired(warmup);
        let snap = self.collect();
        self.ftq_occupancy_cycles.fill(0);
        self.decode_fill_cycles.fill(0);
        self.dists.clear(self.now, self.stats.retired);
        self.trace.clear();
        self.run_until_retired(warmup + measure);
        let delta = self.collect().delta(&snap);
        self.fold_cycle_counts(delta.cycles);
        (delta, self.dists.clone())
    }

    /// Records the per-cycle occupancy counts into their histograms and
    /// zeroes them. A histogram keeps only counts, sums and extremes, so
    /// recording each value once with its cycle count gives exactly the
    /// histogram that recording it every cycle would.
    fn fold_cycle_counts(&mut self, cycles: u64) {
        let pairs = [
            (
                &mut self.ftq_occupancy_cycles,
                &mut self.dists.ftq_occupancy,
            ),
            (
                &mut self.decode_fill_cycles,
                &mut self.dists.decode_queue_fill,
            ),
        ];
        for (counts, hist) in pairs {
            debug_assert_eq!(counts.iter().sum::<u64>(), cycles, "one count per cycle");
            for (value, n) in counts.iter_mut().enumerate() {
                hist.record_n(value as u64, std::mem::take(n));
            }
        }
    }

    /// The prefetch-request ledgers of the L1i, one per prefetch fill
    /// source: lifetime `requests`, `resolved` outcomes, and in-flight
    /// `unresolved` lines. A healthy simulator keeps
    /// `resolved + unresolved == requests` for both sources at all
    /// times.
    pub fn outcome_ledgers(&self) -> [(&'static str, crate::check::OutcomeLedger); 2] {
        let l1i = self.mem.l1i_stats();
        let ledger =
            |outcomes: fdip_mem::PrefetchOutcomes, src: FillSrc| crate::check::OutcomeLedger {
                requests: outcomes.requests,
                resolved: outcomes.resolved(),
                unresolved: self.mem.l1i_unresolved_prefetches(src),
            };
        [
            ("fdp", ledger(l1i.outcomes_fdp, FillSrc::Fdp)),
            ("pf", ledger(l1i.outcomes_pf, FillSrc::Pf)),
        ]
    }

    /// Enables the event tracer with a ring buffer of `capacity` events
    /// (the measurement boundary clears it, so an exported trace covers
    /// the tail of the measurement interval only).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn enable_trace(&mut self, capacity: usize) {
        self.trace = Tracer::with_capacity(capacity);
    }

    /// Takes the tracer out of the simulator, leaving a disabled one.
    pub fn take_tracer(&mut self) -> Tracer {
        std::mem::replace(&mut self.trace, Tracer::disabled())
    }

    fn run_until_retired(&mut self, target: u64) {
        let mut guard = 0u64;
        while self.stats.retired < target {
            let before = self.stats.retired;
            self.step();
            if self.stats.retired == before {
                guard += 1;
                assert!(
                    guard < 2_000_000,
                    "no retirement for 2M cycles at cycle {} (retired {}, FTQ {}, DQ {}, ROB {})",
                    self.now,
                    self.stats.retired,
                    self.ftq.len(),
                    self.dq_len(),
                    self.dispatched
                );
            } else {
                guard = 0;
            }
        }
    }

    /// Snapshot of all counters (including cache/BTB state).
    pub fn collect(&self) -> SimStats {
        let mut s = self.stats;
        s.l1i = self.mem.l1i_stats();
        s.l1d = self.mem.l1d_stats();
        s.l2 = self.mem.l2_stats();
        s.traffic = self.mem.traffic();
        s.btb = self.preds.btb.stats();
        s
    }

    /// Advances the core by one cycle.
    pub fn step(&mut self) {
        let retired_before = self.stats.retired;
        self.resolve_branches();
        self.retire();
        self.dispatch();
        self.fetch_stage();
        self.predict_stage();
        self.issue_prefetches();
        // Cycle accounting: the two common cases (work retired, or the
        // backend holding a full decode group) are decided from state
        // already at hand; only genuinely starved cycles walk the
        // frontend-stall priority tree.
        let dq_len = self.dq_len();
        let starved = dq_len < self.cfg.decode_width;
        let reason = if self.stats.retired > retired_before {
            StallReason::Committing
        } else if !starved {
            StallReason::Backend
        } else {
            self.classify_frontend_stall()
        };
        self.stats.stall.charge(reason);
        if self.trace.enabled() && reason != self.last_stall {
            self.trace.record(
                self.now,
                TraceEventKind::StallTransition,
                reason.index() as u64,
                self.last_stall.index() as u64,
            );
            self.last_stall = reason;
        }
        if starved {
            self.stats.starvation_cycles += 1;
        }
        self.stats.ftq_occupancy_sum += self.ftq.len() as u64;
        self.ftq_occupancy_cycles[self.ftq.len()] += 1;
        self.decode_fill_cycles[dq_len] += 1;
        self.stats.cycles += 1;
        self.now += 1;
        self.dists.maybe_sample_ipc(self.now, self.stats.retired);
    }

    /// Charges a starved, non-retiring cycle to one frontend
    /// [`StallReason`] bucket (`step` decides `Committing`/`Backend`
    /// before calling this — work done beats every stall, and a decode
    /// queue with a full decode group means the frontend kept up).
    ///
    /// Priority tree: an active redirect window splits into its
    /// BTB-latency prefix and the penalty's source; otherwise the FTQ
    /// head tells the story (no head → prediction starved the queue; a
    /// fill still in flight is an exposed miss only if it actually
    /// missed or was stretched by an in-flight merge beyond the hit
    /// latency).
    fn classify_frontend_stall(&self) -> StallReason {
        if self.now < self.pred_stall_until {
            if self.now < self.stall_btb_until {
                return StallReason::PredLatency;
            }
            return self.stall_src;
        }
        match self.ftq.head() {
            None => StallReason::FtqEmpty,
            Some(e) => match e.fill {
                FillState::Waiting => StallReason::PredLatency,
                FillState::Requested {
                    ready_at,
                    missed,
                    requested_at,
                    ..
                } => {
                    if ready_at <= self.now {
                        StallReason::FetchBw
                    } else if missed || ready_at > requested_at + self.cfg.mem.l1i.hit_latency {
                        StallReason::IcacheMiss
                    } else {
                        StallReason::PredLatency
                    }
                }
            },
        }
    }

    // ----------------------------------------------------------------
    // Resolution & flush
    // ----------------------------------------------------------------

    fn resolve_branches(&mut self) {
        while self
            .unresolved
            .front()
            .is_some_and(|front| front.resolve_at <= self.now)
        {
            let Some(u) = self.unresolved.pop_front() else {
                break;
            };
            let actual = *self.oracle.get(u.seq);
            let rec = self.slab.get(u.rec);
            let predicted_next = if rec.predicted_taken {
                rec.predicted_target
            } else {
                u.pc.next_instr()
            };
            let mispredicted = predicted_next != actual.next_pc;
            train(
                &mut self.preds,
                &self.meta,
                self.cfg.policy,
                &u,
                rec,
                actual.taken,
                actual.next_pc,
            );
            if mispredicted {
                self.stats.mispredicts += 1;
                categorize_mispredict(&mut self.stats, &u, rec, actual.taken);
                self.stats.flushes += 1;
                self.flush_after(&u, actual.taken, actual.next_pc);
            }
            self.slab.release(u.rec);
        }
    }

    /// Execute-time flush: squash everything younger than `u`, repair
    /// history from its checkpoint, redirect prediction.
    fn flush_after(&mut self, u: &UnresolvedBranch, actual_taken: bool, actual_next: Addr) {
        let id = u.id;
        // Ids are in program order, so the squash is a truncation.
        let keep = self.inflight.partition_point(|e| e.id <= id);
        let slab = &mut self.slab;
        self.unresolved.retain(|b| {
            let keep = b.id <= id;
            if !keep {
                slab.release(b.rec);
            }
            keep
        });
        self.clear_dq();
        self.inflight.truncate(keep);
        self.dispatched = keep;
        self.flush_ftq();

        let mut h = self.slab.get(u.rec).ckpt;
        h.record_branch(
            &self.preds.plan,
            self.cfg.policy,
            u.pc,
            actual_taken,
            actual_next,
        );
        h.push_ideal_dir(actual_taken);
        if actual_taken && u.kind.is_call() {
            h.ras.push(u.pc.next_instr());
        }
        if actual_taken && u.kind.is_return() {
            h.ras.pop();
        }
        self.hist = h;

        self.pred_pc = actual_next;
        self.pred_on_path = true;
        self.pred_seq = u.seq + 1;
        self.pred_stall_until = self.now + self.cfg.btb_latency + self.cfg.redirect_penalty;
        self.stall_btb_until = self.now + self.cfg.btb_latency;
        self.stall_src = StallReason::Redirect;
        self.trace.record(
            self.now,
            TraceEventKind::Flush,
            u.pc.raw(),
            actual_next.raw(),
        );
        if let Some(lp) = self.preds.loop_pred.as_mut() {
            lp.flush_speculation();
        }
    }

    /// Instructions in the decode queue.
    fn dq_len(&self) -> usize {
        self.inflight.len() - self.dispatched
    }

    /// Appends a fetched instruction to the decode queue.
    fn push_fetched(&mut self, pc: Addr, tag: u8, seq: Option<u64>, branch: Option<BranchId>) {
        let id = self.next_id;
        self.next_id += 1;
        debug_assert!(
            self.inflight.back().is_none_or(|e| e.id < id),
            "in-flight ids must stay in program order"
        );
        self.inflight.push_back(InFlight {
            id,
            pc,
            tag,
            seq,
            branch,
            complete_at: 0,
        });
    }

    /// Empties the decode queue, returning its branch records to the slab.
    fn clear_dq(&mut self) {
        for fi in self.inflight.drain(self.dispatched..) {
            if let Some(b) = fi.branch {
                self.slab.release(b);
            }
        }
    }

    /// Empties the FTQ, returning its branch records to the slab.
    fn flush_ftq(&mut self) {
        for e in self.ftq.iter_mut() {
            e.branches.release_all(&mut self.slab);
        }
        self.ftq.flush_all();
    }

    /// Pops the FTQ head, returning the branch records it still holds to
    /// the slab, and classifies its fill exposure.
    fn pop_ftq_head(&mut self) {
        if let Some(mut e) = self.ftq.pop_head() {
            e.branches.release_all(&mut self.slab);
            self.classify_exposure(&e);
        }
    }

    // ----------------------------------------------------------------
    // Retire & dispatch
    // ----------------------------------------------------------------

    fn retire(&mut self) {
        let mut n = 0;
        while n < self.cfg.backend.retire_width && self.dispatched > 0 {
            let Some(head) = self.inflight.front() else {
                break;
            };
            if head.complete_at > self.now {
                break;
            }
            let Some(e) = self.inflight.pop_front() else {
                break;
            };
            self.dispatched -= 1;
            let Some(seq) = e.seq else {
                debug_assert!(false, "wrong-path instruction reached retire");
                break;
            };
            self.stats.retired += 1;
            if meta::tag_is_branch(e.tag) {
                self.stats.retired_branches += 1;
                if e.tag == meta::TAG_COND_DIRECT {
                    self.stats.retired_cond += 1;
                }
            }
            self.retire_seq = seq + 1;
            n += 1;
        }
        self.oracle.release_below(self.retire_seq);
    }

    fn exec_latency(&mut self, fi: &InFlight) -> u64 {
        match fi.tag {
            meta::TAG_MUL => 3,
            meta::TAG_FP => 4,
            meta::TAG_LOAD => {
                if fi.seq.is_some() {
                    if let Some(idx) = self.meta.slot_of(fi.pc) {
                        let line = self.data_gen.next_line(idx);
                        let ready = self.mem.access_data_line(line, self.now);
                        return (ready - self.now).max(1);
                    }
                }
                1
            }
            _ => 1,
        }
    }

    fn dispatch(&mut self) {
        let mut n = 0;
        while n < self.cfg.backend.dispatch_width && self.dispatched < self.cfg.backend.rob_size {
            let Some(&fi) = self.inflight.get(self.dispatched) else {
                break;
            };
            let lat = self.exec_latency(&fi);
            let complete_at = self.now + self.cfg.backend.frontend_depth + lat;
            // The ROB entry keeps no branch record: it moves to the
            // unresolved list below, or is released.
            if let Some(e) = self.inflight.get_mut(self.dispatched) {
                e.complete_at = complete_at;
                e.branch = None;
            }
            self.dispatched += 1;
            if let Some(rec) = fi.branch {
                match fi.seq {
                    Some(seq) => self.unresolved.push_back(UnresolvedBranch {
                        id: fi.id,
                        resolve_at: self.now + self.cfg.backend.frontend_depth + 1,
                        pc: fi.pc,
                        seq,
                        kind: self.slab.get(rec).kind,
                        rec,
                    }),
                    // A wrong-path branch never resolves.
                    None => self.slab.release(rec),
                }
            }
            n += 1;
        }
    }

    // ----------------------------------------------------------------
    // Instruction fetch pipeline (fills, fetch, PFC)
    // ----------------------------------------------------------------

    fn fetch_stage(&mut self) {
        self.fill_stage();
        self.consume_head();
    }

    /// I-TLB/I-cache tag lookups for the two oldest unprobed entries;
    /// misses start fills immediately, decoupled from the decode queue
    /// (§IV-C).
    fn fill_stage(&mut self) {
        // At most two entries per cycle, oldest first.
        for _ in 0..2 {
            let Some(idx) = self.ftq.oldest_waiting() else {
                break;
            };
            let Some(line) = self.ftq.get(idx).map(FtqEntry::line) else {
                break;
            };
            let was_head = idx == 0;
            if self.cfg.prefetcher.is_perfect() {
                self.mem.prefetch_instr_line_instant(line, self.now);
            }
            let present = self.mem.instr_line_present(line);
            let ready_at = self
                .mem
                .fetch_instr_line_decoupled(line, self.now, !was_head);
            if self.trace.enabled() {
                if let Some((src, late)) = self.mem.take_last_instr_use() {
                    let b = (src == FillSrc::Pf) as u64 | (late as u64) << 1;
                    self.trace
                        .record(self.now, TraceEventKind::PrefetchUse, line, b);
                }
            }
            let missed = !present;
            self.prefetcher
                .on_access(line, present, self.now, &mut self.pf_scratch);
            self.stats.prefetch_candidates += self.pf_scratch.len() as u64;
            for l in self.pf_scratch.drain(..) {
                self.pf_queue.push_back(l);
            }
            if missed && self.cfg.prefetcher.wants_btb_prefetch() {
                self.btb_prefetch_line(line);
            }
            self.ftq.set_oldest_waiting_fill(FillState::Requested {
                ready_at,
                missed,
                was_head,
                requested_at: self.now,
            });
        }
    }

    /// BTB prefetching (§VI-E): pre-decode a filled line and install all
    /// PC-relative branches, blindly.
    fn btb_prefetch_line(&mut self, line: u64) {
        for i in self.meta.slots_of_line(line) {
            if self.meta.flags(i) & meta::F_DIRECT != 0 {
                let Some(kind) = meta::tag_branch_kind(self.meta.tag(i)) else {
                    continue;
                };
                self.preds
                    .btb
                    .insert(self.meta.addr_of(i), kind, self.meta.target(i));
            }
        }
    }

    fn classify_exposure(&mut self, e: &FtqEntry) {
        if let FillState::Requested {
            ready_at,
            missed,
            was_head,
            requested_at,
        } = e.fill
        {
            // Lead time the decoupled frontend achieved for this entry:
            // fill probe → first demand at the FTQ head. Entries probed
            // only once they were already head get a lead of zero.
            let demanded_at = e.head_since.unwrap_or(requested_at);
            self.dists
                .prefetch_lead_time
                .record(demanded_at.saturating_sub(requested_at));
            if !missed {
                return;
            }
            if was_head {
                self.stats.miss_full += 1;
            } else if e.head_since.is_some_and(|h| ready_at > h) {
                self.stats.miss_partial += 1;
            } else {
                self.stats.miss_covered += 1;
            }
        }
    }

    /// Fetches up to `fetch_width` instructions from the FTQ head into
    /// the decode queue, running pre-decode (PFC / history fixup).
    fn consume_head(&mut self) {
        let mut fetched = 0;
        while fetched < self.cfg.fetch_width && self.dq_len() < self.cfg.backend.decode_queue {
            let now = self.now;
            let Some(head) = self.ftq.head_mut() else {
                break;
            };
            if head.head_since.is_none() {
                head.head_since = Some(now);
            }
            let FillState::Requested { ready_at, .. } = head.fill else {
                break;
            };
            if ready_at > now {
                break;
            }
            if head.is_drained() {
                self.pop_ftq_head();
                continue;
            }
            let slot = head.fetched_upto;
            let pc = head.addr_of_offset(slot);
            let seq = head.seq_of_offset(slot);
            let is_term = head.predicted_taken && slot == head.end_offset;
            let hint = (head.hints >> slot) & 1 == 1;
            let rec = head.branches.take(slot);
            head.fetched_upto += 1;
            let drained = head.is_drained();

            let tag = self.meta.tag_at(pc);

            if let Some(b) = rec {
                if !is_term {
                    if let Some((taken, target, case1)) =
                        self.pfc_decision(self.slab.get(b), pc, hint)
                    {
                        // Restream: fix history, flush, push the branch
                        // with its corrected prediction.
                        if case1 {
                            self.stats.pfc_case1 += 1;
                        } else if taken {
                            self.stats.pfc_case2 += 1;
                        }
                        if taken {
                            self.stats.pfc_restreams += 1;
                        } else {
                            self.stats.fixup_flushes += 1;
                        }
                        let r = self.slab.get_mut(b);
                        r.predicted_taken = taken;
                        r.predicted_target = target;
                        self.restream(b, pc, seq, taken, target);
                        self.push_fetched(pc, tag, seq, Some(b));
                        // The rest of the head entry and everything
                        // younger is flushed.
                        self.pop_ftq_head();
                        self.flush_ftq();
                        break;
                    }
                }
                // Branch-triggered prefetching (D-JOLT) hooks the
                // fetched branch stream (correct-path tagged only, so
                // wrong-path noise cannot scramble the signatures), with
                // the frontend's target view.
                let on_path = seq.is_some();
                let r = self.slab.get(b);
                let kind = r.kind;
                let pf_target = if r.predicted_taken {
                    r.predicted_target
                } else {
                    self.meta.static_target_at(pc).unwrap_or(Addr::NULL)
                };
                if on_path {
                    let before = self.pf_scratch.len();
                    self.prefetcher
                        .on_branch(pc, kind, pf_target, &mut self.pf_scratch);
                    self.stats.prefetch_candidates += (self.pf_scratch.len() - before) as u64;
                    while let Some(l) = self.pf_scratch.pop() {
                        self.pf_queue.push_back(l);
                    }
                }
                self.push_fetched(pc, tag, seq, Some(b));
            } else {
                self.push_fetched(pc, tag, seq, None);
            }
            if drained {
                self.pop_ftq_head();
            }
            fetched += 1;
        }
    }

    /// Pre-decode decision for a non-terminator actual branch: returns
    /// `Some((taken, target, is_case1))` when the stream must be
    /// re-steered (PFC cases of Fig. 5) or the history repaired (GHR2/3
    /// fixup, with `taken = false` and a sequential restream).
    fn pfc_decision(&self, r: &SlotBranch, pc: Addr, hint: bool) -> Option<(bool, Addr, bool)> {
        let image_target = self.meta.static_target_at(pc);
        if self.cfg.pfc {
            if r.kind.is_unconditional() && r.kind.pfc_target_available() {
                // Case 1: an unconditional branch before the block end —
                // wrong direction prediction (hint 0) or BTB miss.
                let target = if r.kind.is_return() {
                    r.ckpt.ras.top()
                } else {
                    image_target
                };
                if let Some(t) = target {
                    return Some((true, t, true));
                }
            }
            if r.kind.is_conditional() && hint && !r.detected {
                // Case 2: hinted-taken PC-relative conditional that
                // missed in the BTB.
                if let Some(t) = image_target {
                    return Some((true, t, false));
                }
            }
        }
        if self.cfg.policy.fixup_not_taken() && !r.detected {
            // Direction-history repair: push the predicted direction bit
            // this branch should have contributed and restream
            // sequentially (costs a frontend flush, §III-A).
            return Some((false, pc.next_instr(), false));
        }
        None
    }

    /// Re-steers the prediction pipeline from pre-decode (PFC or fixup).
    fn restream(&mut self, b: BranchId, pc: Addr, seq: Option<u64>, taken: bool, target: Addr) {
        let r = self.slab.get(b);
        let (mut h, kind) = (r.ckpt, r.kind);
        if taken || !self.cfg.policy.uses_target_history() {
            h.record_branch(&self.preds.plan, self.cfg.policy, pc, taken, target);
        }
        h.push_ideal_dir(taken);
        if taken && kind.is_call() {
            h.ras.push(pc.next_instr());
        }
        if taken && kind.is_return() {
            h.ras.pop();
        }
        self.hist = h;
        if let Some(lp) = self.preds.loop_pred.as_mut() {
            lp.flush_speculation();
        }
        let next = if taken { target } else { pc.next_instr() };
        self.pred_pc = next;
        self.pred_stall_until = self.now + self.cfg.btb_latency + self.cfg.pfc_redirect_penalty;
        self.stall_btb_until = self.now + self.cfg.btb_latency;
        self.stall_src = StallReason::PfcRestream;
        self.trace
            .record(self.now, TraceEventKind::Restream, pc.raw(), taken as u64);
        match seq {
            Some(s) => {
                let actual = *self.oracle.get(s);
                if actual.next_pc == next {
                    self.pred_on_path = true;
                    self.pred_seq = s + 1;
                } else {
                    self.pred_on_path = false;
                    if taken {
                        self.stats.pfc_harmful += 1;
                    }
                }
            }
            None => self.pred_on_path = false,
        }
    }

    // ----------------------------------------------------------------
    // Branch prediction pipeline
    // ----------------------------------------------------------------

    /// One prediction cycle: probe up to `pred_bw` sequential slots,
    /// terminate at the first predicted-taken branch (unless B18m), and
    /// insert the covered 32-byte blocks into the FTQ.
    fn predict_stage(&mut self) {
        if self.now < self.pred_stall_until {
            return;
        }
        // Small FTQs (the no-FDP 2-entry configuration) still predict:
        // gate on having at least one free entry, and stop opening new
        // blocks when space runs out.
        let mut budget = self.ftq.free().min(self.cfg.max_blocks_per_predict());
        if budget == 0 {
            return;
        }
        let mut slots = self.cfg.pred_bw;
        let mut cursor = self.pred_pc;
        let mut open: Option<FtqEntry> = None;

        while slots > 0 {
            let pc = cursor;
            let offset = pc.ftq_offset();
            if open.is_none() {
                if budget == 0 {
                    break;
                }
                budget -= 1;
                open = Some(FtqEntry::new(pc, offset));
            }

            // --- A straight-line run of the open block advances in one
            // step: none of its slots is a branch, so none is in the BTB
            // or consumes a prediction, and on the committed path each
            // falls through to the next (DESIGN.md §4).
            let run = self
                .meta
                .slot_of(pc)
                .map_or(0, |i| self.meta.straight_run(i, slots.min(8 - offset)));
            if run > 0 {
                let Some(e) = open.as_mut() else { break };
                if self.pred_on_path {
                    let seq = self.pred_seq;
                    if self.oracle.get(seq).pc == pc {
                        debug_assert!((1..run as u64)
                            .all(|j| self.oracle.get(seq + j).pc == pc + j * INSTR_BYTES));
                        if e.matched == offset - e.start_offset() {
                            e.first_seq.get_or_insert(seq);
                            e.matched += run;
                        }
                        self.pred_seq = seq + run as u64;
                    } else {
                        self.pred_on_path = false;
                    }
                }
                if !self.cfg.perfect_btb {
                    self.preds.btb.count_misses(pc, run);
                }
                e.end_offset = offset + run - 1;
                slots -= run;
                cursor = pc + run as u64 * INSTR_BYTES;
                if e.end_offset == 7 {
                    let Some(mut e) = open.take() else { break };
                    e.next_block = cursor;
                    self.push_ftq(e);
                }
                continue;
            }

            // --- Correct-path tagging.
            let mut slot_seq = None;
            if self.pred_on_path {
                let exp = self.oracle.get(self.pred_seq);
                if exp.pc == pc {
                    slot_seq = Some(self.pred_seq);
                } else {
                    self.pred_on_path = false;
                }
            }
            {
                let Some(e) = open.as_mut() else { break };
                if slot_seq.is_some() && e.matched == offset - e.start_offset() {
                    if e.first_seq.is_none() {
                        e.first_seq = slot_seq;
                    }
                    e.matched += 1;
                }
            }

            let slot_idx = self.meta.slot_of(pc);
            let tag = slot_idx.map_or(meta::TAG_ALU, |i| self.meta.tag(i));
            let actual_branch = meta::tag_branch_kind(tag);

            // --- BTB (16 slots/cycle readout; every slot probed).
            let btb_hit: Option<(BranchKind, Addr)> = if self.cfg.perfect_btb {
                let visible = slot_idx.filter(|&i| {
                    self.perfect_btb_bits
                        .get(i / 64)
                        .is_some_and(|w| w >> (i % 64) & 1 == 1)
                });
                match (visible, actual_branch) {
                    (Some(i), Some(kind)) => {
                        // Indirect targets are not in the instruction
                        // word; a perfect BTB still remembers the last
                        // observed target like a real one.
                        let embedded = self.meta.target(i);
                        let target = if embedded.is_null() {
                            self.preds.btb.lookup(pc).map_or(Addr::NULL, |e| e.target)
                        } else {
                            embedded
                        };
                        Some((kind, target))
                    }
                    _ => None,
                }
            } else {
                self.preds.btb.lookup(pc).map(|e| (e.kind, e.target))
            };
            let detected = btb_hit.is_some();

            // --- Direction prediction. Hardware predicts every slot
            // (EV8-style); only actual-branch slots consume the result,
            // so the simulator computes just those (functionally
            // equivalent, DESIGN.md §4).
            let mut tage_pred = TagePrediction::default();
            let mut hint = false;
            if let Some(k) = actual_branch {
                if k.is_conditional() {
                    let oracle_dir = slot_seq.map(|s| self.oracle.get(s).taken);
                    tage_pred = self.preds.dir.predict(
                        pc,
                        &self.hist.folds,
                        &self.hist.ideal_dir,
                        oracle_dir,
                    );
                    hint = tage_pred.taken;
                    // A confident loop-predictor entry overrides the
                    // direction predictor (§II-A).
                    if let Some(lp) = self.preds.loop_pred.as_mut() {
                        if let Some(p) = lp.predict(pc) {
                            if p.confident {
                                hint = p.taken;
                                tage_pred.taken = p.taken;
                            }
                        }
                    }
                } else {
                    hint = true;
                }
            }

            // --- Checkpoint before this slot's speculative effects.
            // Only branch slots need one, and the copy is several hundred
            // bytes, so it is written straight into the slab slot the
            // branch will travel by (predictions are patched in below).
            let mut rec =
                actual_branch.map(|k| self.slab.alloc(k, &self.hist, tage_pred, detected));
            let mut itt_pred = IttagePrediction::default();
            let mut predicted_taken = false;
            let mut predicted_target = Addr::NULL;
            let mut next = pc.next_instr();

            if let Some((k, btb_target)) = btb_hit {
                let mut taken = if k.is_conditional() {
                    tage_pred.taken
                } else {
                    true
                };
                let mut target = btb_target;
                if taken && k.is_indirect() {
                    itt_pred = self.preds.ittage.predict(pc, &self.hist.folds);
                    if self.cfg.perfect_indirect {
                        if let Some(s) = slot_seq {
                            target = self.oracle.get(s).next_pc;
                        } else if !itt_pred.target.is_null() {
                            target = itt_pred.target;
                        }
                    } else if !itt_pred.target.is_null() {
                        target = itt_pred.target;
                    }
                }
                if taken && k.is_return() {
                    target = self.hist.ras.top().unwrap_or(btb_target);
                }
                if taken && target.is_null() {
                    // No target available (e.g. cold indirect): the
                    // frontend cannot redirect; flow continues
                    // sequentially.
                    taken = false;
                }
                if taken {
                    if k.is_return() {
                        self.hist.ras.pop();
                    }
                    if k.is_call() {
                        self.hist.ras.push(pc.next_instr());
                    }
                }
                self.hist
                    .record_branch(&self.preds.plan, self.cfg.policy, pc, taken, target);
                self.hist.push_ideal_dir(taken);
                predicted_taken = taken;
                predicted_target = target;
                if taken {
                    next = target;
                }
            } else if let Some(k) = actual_branch {
                // Undetected branch: flows sequentially. The Ideal
                // policy still sees it (oracle detection) and records
                // its predicted direction.
                let bit = if k.is_conditional() { hint } else { true };
                if self.cfg.policy.oracle_detection() {
                    self.hist
                        .record_branch(&self.preds.plan, self.cfg.policy, pc, bit, Addr::NULL);
                }
                self.hist.push_ideal_dir(bit);
            }

            // --- Record into the open block.
            {
                let Some(e) = open.as_mut() else { break };
                e.end_offset = offset;
                if hint {
                    e.hints |= 1 << offset;
                }
                if let Some(b) = rec.take() {
                    let r = self.slab.get_mut(b);
                    r.itt_pred = itt_pred;
                    r.predicted_taken = predicted_taken;
                    r.predicted_target = predicted_target;
                    e.branches.push(offset, b);
                }
            }

            // --- Advance the correct-path cursor.
            if let Some(s) = slot_seq {
                if self.oracle.get(s).next_pc == next {
                    self.pred_seq = s + 1;
                } else {
                    self.pred_on_path = false;
                }
            }

            slots -= 1;
            cursor = next;

            if predicted_taken {
                let Some(mut e) = open.take() else { break };
                e.predicted_taken = true;
                e.next_block = next;
                self.push_ftq(e);
                if !self.cfg.multi_taken {
                    break;
                }
            } else if offset == 7 {
                let Some(mut e) = open.take() else { break };
                e.next_block = next;
                self.push_ftq(e);
            }
        }
        if let Some(mut e) = open.take() {
            e.next_block = cursor;
            self.push_ftq(e);
        }
        self.pred_pc = cursor;
    }

    /// Inserts a completed block into the FTQ, tracing the enqueue.
    fn push_ftq(&mut self, e: FtqEntry) {
        self.trace.record(
            self.now,
            TraceEventKind::FtqEnqueue,
            e.start.raw(),
            e.line(),
        );
        self.ftq.push(e);
    }

    // ----------------------------------------------------------------
    // Prefetch issue
    // ----------------------------------------------------------------

    fn issue_prefetches(&mut self) {
        // Re-issue filter: a line prefetched recently is not issued
        // again, preventing aggressive prefetchers from churning the
        // small L1I with repeated fills. Only FNL+MMA implements such a
        // filter (paper §VI-D footnote); unfiltered prefetchers probe
        // the I-cache tags for every candidate. The filter is a
        // fixed-size probe table, so its memory is capped regardless of
        // how many distinct lines the prefetcher touches.
        let mut issued = 0;
        while issued < self.cfg.prefetch_issue_bw {
            let Some(line) = self.pf_queue.pop_front() else {
                break;
            };
            let now = self.now;
            if let Some(f) = self.pf_recent.as_mut() {
                if f.filter(line, now, REISSUE_WINDOW) {
                    continue;
                }
            }
            let filled = self.mem.prefetch_instr_line(line, now);
            self.trace
                .record(now, TraceEventKind::PrefetchIssue, line, 0);
            if filled {
                self.trace
                    .record(now, TraceEventKind::PrefetchFill, line, 0);
            }
            issued += 1;
        }
        // Bound queue growth under pathological candidate floods (drop
        // the newest, least-urgent candidates).
        self.pf_queue.truncate(256);
    }
}

/// Trains the predictors with a resolved branch's outcome, using the
/// histories and predictions its record checkpointed.
fn train(
    preds: &mut Predictors,
    meta: &StaticMeta,
    policy: HistoryPolicy,
    u: &UnresolvedBranch,
    rec: &SlotBranch,
    actual_taken: bool,
    actual_next: Addr,
) {
    if u.kind.is_conditional() {
        if let Some(lp) = preds.loop_pred.as_mut() {
            lp.update(u.pc, actual_taken);
        }
        preds.dir.update(
            u.pc,
            &rec.ckpt.folds,
            &rec.ckpt.ideal_dir,
            actual_taken,
            rec.tage_pred,
        );
    }
    if u.kind.is_indirect() {
        preds
            .ittage
            .update(u.pc, &rec.ckpt.folds, actual_next, rec.itt_pred);
    }
    // BTB allocation policy (Table V column).
    if actual_taken {
        preds.btb.insert(u.pc, u.kind, actual_next);
    } else if policy.allocate_not_taken() {
        if let Some(t) = meta.static_target_at(u.pc) {
            preds.btb.insert(u.pc, u.kind, t);
        }
    }
}

/// Charges a misprediction to its cause counter.
fn categorize_mispredict(
    stats: &mut SimStats,
    u: &UnresolvedBranch,
    rec: &SlotBranch,
    actual_taken: bool,
) {
    if !rec.detected && actual_taken && !rec.predicted_taken {
        stats.misp_undetected += 1;
    } else if u.kind.is_conditional() && rec.predicted_taken != actual_taken {
        stats.misp_cond_dir += 1;
    } else if u.kind.is_indirect() {
        stats.misp_indirect += 1;
    } else if u.kind.is_return() {
        stats.misp_return += 1;
    } else {
        stats.misp_cond_dir += 1;
    }
}

/// Convenience: build, run, and return measurement statistics for one
/// (config, program) pair.
///
/// # Examples
///
/// ```no_run
/// use fdip_program::workload::{Workload, WorkloadFamily};
/// use fdip_sim::{run_workload, CoreConfig};
///
/// let wl = Workload::family_default("spec_a", WorkloadFamily::Spec, 301);
/// let program = wl.build();
/// let stats = run_workload(&CoreConfig::fdp(), &program, 10_000, 50_000);
/// println!("IPC {:.2}", stats.ipc());
/// ```
pub fn run_workload(cfg: &CoreConfig, program: &Program, warmup: u64, measure: u64) -> SimStats {
    run_workload_detailed(cfg, program, warmup, measure).0
}

/// Like [`run_workload`], but also returns the distribution telemetry
/// (histograms and sampled IPC) of the measurement interval.
pub fn run_workload_detailed(
    cfg: &CoreConfig,
    program: &Program,
    warmup: u64,
    measure: u64,
) -> (SimStats, SimDists) {
    let mut sim = Simulator::new(cfg.clone(), program, 0xf0cced);
    sim.run_detailed(warmup, measure)
}

/// Like [`run_workload_detailed`], but with the event tracer enabled at
/// `trace_capacity` ring slots. The returned tracer holds the (tail of
/// the) measurement interval's events, ready for
/// [`Tracer::to_chrome_trace`].
pub fn run_workload_traced(
    cfg: &CoreConfig,
    program: &Program,
    warmup: u64,
    measure: u64,
    trace_capacity: usize,
) -> (SimStats, SimDists, Tracer) {
    let mut sim = Simulator::new(cfg.clone(), program, 0xf0cced);
    sim.enable_trace(trace_capacity);
    let (stats, dists) = sim.run_detailed(warmup, measure);
    (stats, dists, sim.take_tracer())
}

/// The `Send`-safe (`'static`) run entry point for job pools: owns its
/// configuration and shares the program behind an [`Arc`](std::sync::Arc),
/// so the closure capturing the arguments can cross threads without
/// borrowing the submitter's stack.
///
/// Identical results to [`run_workload_detailed`] — same fixed seed, so a
/// given `(cfg, program, warmup, measure)` is deterministic no matter
/// which thread runs it.
pub fn run_workload_job(
    cfg: CoreConfig,
    program: std::sync::Arc<Program>,
    warmup: u64,
    measure: u64,
) -> (SimStats, SimDists) {
    run_workload_detailed(&cfg, &program, warmup, measure)
}

/// Compile-time proof that everything a pool job captures or returns can
/// cross threads.
#[allow(dead_code, reason = "a compile-time check; never called")]
fn assert_run_entry_points_are_send() {
    fn check<T: Send + Sync>() {}
    check::<CoreConfig>();
    check::<Program>();
    check::<SimStats>();
    check::<SimDists>();
}

#[cfg(test)]
mod tests {
    use super::*;
    use fdip_prefetch::PrefetcherKind;
    use fdip_program::{ProgramBuilder, ProgramParams};

    fn small_program(seed: u64) -> Program {
        ProgramBuilder::new(ProgramParams {
            seed,
            num_funcs: 48,
            ..ProgramParams::default()
        })
        .build("sim-test")
    }

    fn quick(cfg: &CoreConfig, p: &Program) -> SimStats {
        run_workload(cfg, p, 3_000, 15_000)
    }

    #[test]
    fn retires_the_requested_instructions() {
        let p = small_program(1);
        let s = quick(&CoreConfig::fdp(), &p);
        // Warm-up may overshoot by up to retire_width.
        assert!(s.retired >= 15_000 - 8, "{}", s.retired);
        assert!(s.cycles > 0);
        let ipc = s.ipc();
        assert!(ipc > 0.1 && ipc < 8.0, "implausible IPC {ipc}");
    }

    #[test]
    fn deterministic_runs() {
        let p = small_program(2);
        let a = quick(&CoreConfig::fdp(), &p);
        let b = quick(&CoreConfig::fdp(), &p);
        assert_eq!(a, b);
    }

    #[test]
    fn fdp_beats_no_fdp() {
        let p = small_program(3);
        let fdp = quick(&CoreConfig::fdp(), &p);
        let no = quick(&CoreConfig::no_fdp(), &p);
        assert!(
            fdp.ipc() > no.ipc(),
            "FDP {:.3} vs no-FDP {:.3}",
            fdp.ipc(),
            no.ipc()
        );
    }

    #[test]
    fn mispredictions_are_bounded_and_nonzero() {
        let p = small_program(4);
        let s = quick(&CoreConfig::fdp(), &p);
        assert!(s.mispredicts > 0, "a real workload mispredicts sometimes");
        let mpki = s.branch_mpki();
        assert!(mpki < 150.0, "MPKI {mpki} absurdly high");
    }

    #[test]
    fn perfect_btb_and_direction_reduce_mispredicts() {
        let p = small_program(5);
        let base = quick(&CoreConfig::fdp(), &p);
        let perfect = quick(
            &CoreConfig {
                perfect_btb: true,
                perfect_indirect: true,
                direction: crate::config::DirectionConfig::Perfect,
                ..CoreConfig::fdp()
            },
            &p,
        );
        assert!(
            perfect.mispredicts < base.mispredicts / 2,
            "perfect {} vs base {}",
            perfect.mispredicts,
            base.mispredicts
        );
    }

    #[test]
    fn perfect_btb_table_is_only_allocated_when_enabled() {
        let p = small_program(5);
        let off = Simulator::new(CoreConfig::fdp(), &p, 1);
        assert_eq!(off.perfect_btb_table_words(), 0);
        let on = Simulator::new(
            CoreConfig {
                perfect_btb: true,
                ..CoreConfig::fdp()
            },
            &p,
            1,
        );
        assert!(on.perfect_btb_table_words() > 0);
    }

    #[test]
    fn perfect_prefetch_removes_starvation_misses() {
        let p = small_program(6);
        let base = quick(&CoreConfig::fdp(), &p);
        let perfect = quick(
            &CoreConfig::fdp().with_prefetcher(PrefetcherKind::Perfect),
            &p,
        );
        assert!(perfect.ipc() >= base.ipc() * 0.98);
        // Exposed misses should essentially vanish.
        assert!(perfect.miss_full + perfect.miss_partial <= base.miss_full + base.miss_partial);
    }

    #[test]
    fn pfc_restreams_fire_on_small_btbs() {
        let p = small_program(7);
        // No functional warm-up: a cold, tiny BTB misses on taken
        // branches, which is exactly what PFC recovers.
        let mut cfg = CoreConfig::fdp().with_btb_entries(64);
        cfg.func_warmup = 0;
        let s = quick(&cfg, &p);
        assert!(s.pfc_restreams > 0, "small BTB must trigger PFC");
        let off = quick(&cfg.with_pfc(false), &p);
        assert_eq!(off.pfc_restreams, 0);
    }

    #[test]
    fn larger_ftq_improves_ipc_on_icache_bound_work() {
        let p = ProgramBuilder::new(ProgramParams {
            seed: 8,
            num_funcs: 600,
            ..ProgramParams::default()
        })
        .build("big");
        let small = quick(&CoreConfig::fdp().with_ftq(2), &p);
        let large = quick(&CoreConfig::fdp().with_ftq(24), &p);
        assert!(
            large.ipc() > small.ipc() * 1.02,
            "24-entry {:.3} vs 2-entry {:.3}",
            large.ipc(),
            small.ipc()
        );
    }

    #[test]
    fn detailed_run_populates_distributions() {
        let p = small_program(10);
        let mut sim = Simulator::new(CoreConfig::fdp(), &p, 1);
        let (s, d) = sim.run_detailed(3_000, 15_000);
        // Per-cycle distributions cover exactly the measured interval.
        assert_eq!(d.ftq_occupancy.count(), s.cycles);
        assert_eq!(d.decode_queue_fill.count(), s.cycles);
        // Every consumed FTQ entry contributes a lead-time sample, and a
        // decoupled frontend achieves nonzero lead on at least some.
        assert!(d.prefetch_lead_time.count() > 0);
        assert!(d.prefetch_lead_time.max().unwrap_or(0) > 0);
        // 15K instructions at IPC ~1-3 spans multiple 4096-cycle windows.
        assert!(!d.sampled_ipc.is_empty());
        let overall = s.ipc();
        for ipc in &d.sampled_ipc {
            assert!(*ipc >= 0.0 && *ipc <= 8.0, "implausible sample {ipc}");
        }
        let mean: f64 = d.sampled_ipc.iter().sum::<f64>() / d.sampled_ipc.len() as f64;
        assert!(
            (mean - overall).abs() < overall * 0.5,
            "sample mean {mean} far from overall IPC {overall}"
        );
    }

    /// Branch records still held by the FTQ, the decode queue and the
    /// unresolved list.
    fn held_records(sim: &Simulator) -> usize {
        sim.ftq.iter().map(|e| e.branches.len()).sum::<usize>()
            + sim.inflight.iter().filter(|fi| fi.branch.is_some()).count()
            + sim.unresolved.len()
    }

    #[test]
    fn branch_slab_holds_exactly_the_in_flight_records() {
        // A small BTB under GHR fixup, on a footprint it cannot hold: PFC
        // restreams, fixup flushes and execute-time flushes all drop
        // records.
        let p = ProgramBuilder::new(ProgramParams {
            seed: 11,
            num_funcs: 600,
            ..ProgramParams::default()
        })
        .build("big");
        let cfg = CoreConfig::fdp()
            .with_btb_entries(1024)
            .with_policy(HistoryPolicy::Ghr2);
        let mut sim = Simulator::new(cfg, &p, 1);
        sim.run(0, 20_000);
        let slots = sim.slab.slots();
        let before = sim.collect();
        while sim.stats.retired < 120_000 {
            sim.step();
            assert_eq!(sim.slab.live(), held_records(&sim), "cycle {}", sim.now);
        }
        let s = sim.collect().delta(&before);
        assert!(
            s.flushes > 20 && s.pfc_restreams > 20 && s.fixup_flushes > 20,
            "{} flushes, {} restreams, {} fixups",
            s.flushes,
            s.pfc_restreams,
            s.fixup_flushes
        );
        assert_eq!(sim.slab.slots(), slots, "the slab grew after warm-up");
    }

    #[test]
    fn warmup_is_excluded_from_stats() {
        let p = small_program(9);
        let mut sim = Simulator::new(CoreConfig::fdp(), &p, 1);
        let s = sim.run(5_000, 10_000);
        assert!(
            s.retired >= 10_000 - 8 && s.retired < 12_000,
            "{}",
            s.retired
        );
    }
}
