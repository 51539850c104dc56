#include "cpu/core.h"

#include <algorithm>
#include <cassert>

#include "common/log.h"

namespace safespec::cpu {

using isa::OpClass;
using memory::CacheHierarchy;
using memory::Side;
using shadow::FullPolicy;

// One page walk acquires at most one shadow ref per radix level; only
// kStall retry re-walks spill past the inline storage.
static_assert(DynInst::WalkerRefs::kInline >=
                  memory::PageTable::kWalkLevels,
              "walker ref inline storage must cover one full walk");

namespace {
/// Maximum decoded-but-undispatched instructions buffered by the front
/// end. Sized to cover the fetch-to-dispatch delay at full width.
constexpr int kFetchBufferCap = 48;

/// Resolves the configured policy name and applies its full-table
/// handling override to every shadow structure — and its cache-level
/// protection (SHARP family) to every hierarchy level — before anything
/// is built. The Simulator applies the same hierarchy tune when it
/// constructs the shared L2/L3, so private and shared levels agree.
CoreConfig tuned_config(CoreConfig c) {
  const auto& p = policy::named_policy(c.policy);
  p.tune(c.shadow_dcache);
  p.tune(c.shadow_icache);
  p.tune(c.shadow_dtlb);
  p.tune(c.shadow_itlb);
  p.tune(c.hierarchy, c.sharp_alarm_threshold, c.sharp_alarm_epoch);
  return c;
}
}  // namespace

const char* to_string(StopReason reason) {
  switch (reason) {
    case StopReason::kHalted:
      return "halted";
    case StopReason::kFaultNoHandler:
      return "fault";
    case StopReason::kMaxCycles:
      return "max-cycles";
    case StopReason::kMaxInstrs:
      return "max-instrs";
  }
  return "?";
}

Core::Core(const CoreConfig& config, const isa::Program* program,
           memory::MainMemory* mem, memory::PageTable* page_table,
           memory::SharedLevels* shared_levels, int core_id)
    : config_(tuned_config(config)),
      policy_(&policy::named_policy(config_.policy)),
      protection_on_(policy_->shadows_speculation()),
      promote_at_resolution_(policy_->promote_at_branch_resolution()),
      annul_on_squash_(policy_->annul_on_squash()),
      program_(program),
      mem_(mem),
      page_table_(page_table),
      core_id_(core_id),
      hierarchy_(config_.hierarchy, shared_levels, core_id),
      itlb_(config_.itlb),
      dtlb_(config_.dtlb),
      predictor_(config_.predictor),
      shadow_dcache_(config_.shadow_dcache),
      shadow_icache_(config_.shadow_icache),
      shadow_dtlb_(config_.shadow_dtlb),
      shadow_itlb_(config_.shadow_itlb),
      rob_(static_cast<std::size_t>(config_.rob_entries)),
      fetch_queue_(
          static_cast<std::size_t>(kFetchBufferCap + config_.fetch_width)) {
  fetch_pc_ = program_->entry();
  unresolved_branches_.reserve(static_cast<std::size_t>(config_.rob_entries));
  ready_.reserve(static_cast<std::size_t>(config_.iq_entries));
  in_flight_.reserve(static_cast<std::size_t>(config_.rob_entries));
  wfb_pending_.reserve(static_cast<std::size_t>(config_.rob_entries));
  stores_.reserve(static_cast<std::size_t>(config_.stq_entries));
  if (config_.dib_lines > 0) {
    std::size_t lines = 1;
    while (lines < static_cast<std::size_t>(config_.dib_lines)) lines *= 2;
    dib_block_lines_ = std::min(lines, kDibBlockLines);
    dib_blocks_.resize(lines / dib_block_lines_);
    dib_mask_ = static_cast<Addr>(lines - 1);
  }
}

const isa::Instruction* Core::fetch_decode(Addr pc) {
  // Misaligned pcs (speculated indirect targets) are never occupied and
  // never cached — same answer program_->at() gives.
  if (dib_blocks_.empty() || pc % isa::kInstrBytes != 0) {
    return program_->at(pc);
  }
  const Addr line = pc >> kLineShift;
  const std::size_t slot = (pc & (kLineSize - 1)) / isa::kInstrBytes;
  // L0: sequential fetches stay on one line; skip even the indexed
  // lookup and tag compare then.
  if (line == dib_last_line_) {
    ++stats_.dib_hits;
    return dib_last_->slots[slot];
  }
  const auto index = static_cast<std::size_t>(line & dib_mask_);
  std::unique_ptr<DibLine[]>& block = dib_blocks_[index / kDibBlockLines];
  if (!block) block = std::make_unique<DibLine[]>(dib_block_lines_);
  DibLine& entry = block[index % kDibBlockLines];
  if (entry.tag == line) {
    ++stats_.dib_hits;
  } else {
    const Addr base = line << kLineShift;
    for (std::size_t i = 0; i < entry.slots.size(); ++i) {
      entry.slots[i] = program_->at(base + i * isa::kInstrBytes);
    }
    entry.tag = line;
    ++stats_.dib_fills;
  }
  dib_last_line_ = line;
  dib_last_ = &entry;
  return entry.slots[slot];
}

void Core::invalidate_dib() {
  for (const auto& block : dib_blocks_) {
    if (!block) continue;
    for (std::size_t i = 0; i < dib_block_lines_; ++i) {
      block[i].tag = ~Addr{0};
    }
  }
  dib_last_ = nullptr;
  dib_last_line_ = ~Addr{0};
}

void Core::step() {
  stage_complete();
  stage_commit();
  stage_issue();
  stage_dispatch();
  stage_fetch();

  if (protection_on()) {
    shadow_dcache_.sample_occupancy();
    shadow_icache_.sample_occupancy();
    shadow_dtlb_.sample_occupancy();
    shadow_itlb_.sample_occupancy();
  }
  ++cycle_;
  ++stats_.cycles;
}

Cycle Core::next_event_cycle() const {
  // Issue retries every ready entry each cycle, and WFB promotion runs
  // at the next commit stage.
  if (!ready_.empty() || !wfb_pending_.empty()) return cycle_;
  Cycle next = next_complete_cycle_;
  if (!rob_.empty()) {
    if (promote_at_resolution_) {
      const SeqNum frontier = unresolved_branches_.empty()
                                  ? rob_.back().seq + 1
                                  : unresolved_branches_.front();
      if (frontier != promoted_below_seq_) return cycle_;
    }
    const DynInst& head = rob_.front();
    if (head.state == InstState::kDone) {
      next = std::min(
          next, head.done_cycle + static_cast<Cycle>(config_.commit_delay));
    }
  }
  // A fetch-buffer head held back by a structural hazard waits for an
  // issue, commit or squash, which the bounds above already cover.
  if (!fetch_queue_.empty() && !dispatch_blocked(fetch_queue_.front())) {
    next = std::min(next, fetch_queue_.front().ready_at);
  }
  if (!halted_ && !fetch_stalled_ &&
      static_cast<int>(fetch_queue_.size()) < kFetchBufferCap) {
    next = std::min(next, fetch_busy_until_);
  }
  return std::max(next, cycle_);
}

void Core::idle_to(Cycle target) {
  assert(target >= cycle_ && target <= next_event_cycle());
  const Cycle skipped = target - cycle_;
  if (protection_on()) {
    shadow_dcache_.sample_occupancy(skipped);
    shadow_icache_.sample_occupancy(skipped);
    shadow_dtlb_.sample_occupancy(skipped);
    shadow_itlb_.sample_occupancy(skipped);
  }
  cycle_ = target;
  stats_.cycles += skipped;
}

// --------------------------------------------------------------------------
// Complete: retire execution results, resolve branches (possibly squashing).
// --------------------------------------------------------------------------

void Core::stage_complete() {
  // Nothing in flight can have finished yet. next_complete_cycle_ is a
  // lower bound on the earliest completion (kept at issue time), so this
  // gate never delays a writeback — it skips the cycles of memory-bound
  // phases where the window sits blocked behind a long-latency load.
  if (cycle_ < next_complete_cycle_) return;
  Cycle next = kNeverCycle;
  // Compacts in place: in_flight_[0, kept) holds the still-executing
  // entries visited so far; [kept, i) the visited, now-done ones.
  std::size_t kept = 0;
  std::size_t i = 0;
  while (i < in_flight_.size()) {
    const SeqNum seq = in_flight_[i++];
    DynInst& di = *find_by_seq(seq);
    if (di.done_cycle > cycle_) {
      next = std::min(next, di.done_cycle);
      in_flight_[kept++] = seq;
      continue;
    }
    di.state = InstState::kDone;
    if (di.inst.writes_register()) wake_dependents(di);
    if (di.is_branch()) {
      resolve_branch(di);
      if (di.mispredicted) {
        // The squash truncated in_flight_ to [0, i): everything younger
        // is gone, and the older entries were already folded into `next`.
        break;
      }
    }
  }
  in_flight_.erase(in_flight_.begin() + static_cast<std::ptrdiff_t>(kept),
                   in_flight_.begin() + static_cast<std::ptrdiff_t>(i));
  next_complete_cycle_ = next;
}

void Core::resolve_branch(DynInst& di) {
  switch (di.inst.op) {
    case OpClass::kBranch:
      di.actual_taken = isa::eval_cond(di.inst.cond, di.src1_value,
                                       di.src2_value);
      di.actual_next =
          di.actual_taken ? di.inst.target : di.pc + isa::kInstrBytes;
      break;
    case OpClass::kJump:
    case OpClass::kCall:
      di.actual_taken = true;
      di.actual_next = di.inst.target;
      break;
    case OpClass::kBranchIndirect:
      di.actual_taken = true;
      di.actual_next = di.src1_value + static_cast<Addr>(di.inst.imm);
      break;
    case OpClass::kRet:
      di.actual_taken = true;
      di.actual_next = di.src1_value;
      break;
    default:
      return;
  }
  di.branch_resolved = true;
  erase_seq(unresolved_branches_, di.seq);
  note_promotable(di);

  // Resolution-time training — the path an attacker mistrains through.
  predictor_.train(di.pc, di.inst, di.actual_taken, di.actual_next);

  const bool correct = di.target_known && di.predicted_next == di.actual_next;
  if (di.inst.op == OpClass::kBranch) predictor_.note_resolution(correct);

  if (!correct) {
    di.mispredicted = true;
    ++stats_.mispredicts;
    ++stats_.squashes;
    squash_younger_than(di.seq, di.actual_next);
  }
}

void Core::squash_younger_than(SeqNum seq, Addr redirect_pc) {
  while (!rob_.empty() && rob_.back().seq > seq) {
    DynInst& victim = rob_.back();
    release_shadow(victim);
    if (victim.is_branch()) erase_seq(unresolved_branches_, victim.seq);
    if (victim.is_load()) --loads_in_flight_;
    if (victim.state == InstState::kWaiting) --waiting_;
    if (victim.inst.op == OpClass::kFence) fence_active_ = false;
    ++stats_.squashed_instrs;
    rob_.pop_back();
  }
  // Rewind numbering over the squashed suffix so ROB seqs stay contiguous
  // (the invariant find_by_seq's O(1) slot math relies on). Safe — every
  // reference to a squashed seq was erased above, and relabeling future
  // instructions preserves all age comparisons.
  next_seq_ = seq + 1;
  truncate_above(ready_, seq);
  truncate_above(in_flight_, seq);
  truncate_above(wfb_pending_, seq);
  truncate_above(stores_, seq);
  // The WFB frontier mark may have advanced past `seq` (the squashed
  // suffix was passed); instructions dispatched after the rewind reuse
  // those seqs, so clamp the mark or the frontier would never pass them —
  // promoting their shadow state only at commit and silently shifting WFB
  // timing and occupancy on every fault-handler recovery.
  promoted_below_seq_ = std::min(promoted_below_seq_, next_seq_);
  // Wrong-path decoded instructions also hold shadow references.
  for (FetchedInst& fi : fetch_queue_) {
    if (fi.shadow_iline != DynInst::kNoShadow) {
      shadow_icache_.release(fi.shadow_iline);
    }
    if (fi.shadow_itlb != DynInst::kNoShadow) {
      shadow_itlb_.release(fi.shadow_itlb);
    }
    stats_.squashed_instrs++;
  }
  fetch_queue_.clear();
  release_pending_fetch_refs();
  fetch_pc_ = redirect_pc;
  fetch_stalled_ = false;
  fetch_busy_until_ = cycle_ + 1;
  rebuild_rename_map();
}

void Core::release_pending_fetch_refs() {
  if (pending_iline_ != DynInst::kNoShadow) {
    shadow_icache_.release(pending_iline_);
    pending_iline_ = DynInst::kNoShadow;
  }
  if (pending_itlb_ != DynInst::kNoShadow) {
    shadow_itlb_.release(pending_itlb_);
    pending_itlb_ = DynInst::kNoShadow;
  }
}

void Core::rebuild_rename_map() {
  std::fill(std::begin(rename_), std::end(rename_), SeqNum{0});
  for (const DynInst& di : rob_) {
    if (di.inst.writes_register()) rename_[di.inst.dst] = di.seq;
  }
}

// --------------------------------------------------------------------------
// Commit.
// --------------------------------------------------------------------------

void Core::stage_commit() {
  // WFB promotion: an instruction's shadow state becomes commitable once
  // no older branch remains unresolved (§III "wait-for-branch") and it is
  // promotable itself — issued, and resolved if it is a jump or call.
  // Only entries older than the oldest unresolved branch (the frontier,
  // non-decreasing between squashes) qualify. The frontier passes each
  // seq once: the newly passed range [promoted_below_seq_, frontier) is
  // promoted here, except entries not yet promotable, which their own
  // issue or resolve event queues on wfb_pending_ for a later cycle.
  // Queued seqs all lie below the range, so promoting them first keeps
  // the whole cycle's promotions (hence LRU fills) in ascending seq order.
  if (promote_at_resolution_ && !rob_.empty()) {
    const SeqNum front_seq = rob_.front().seq;
    const SeqNum frontier = unresolved_branches_.empty()
                                ? rob_.back().seq + 1
                                : unresolved_branches_.front();
    assert(frontier >= promoted_below_seq_);
    for (const SeqNum seq : wfb_pending_) promote_shadow(*find_by_seq(seq));
    wfb_pending_.clear();
    for (SeqNum seq = std::max(promoted_below_seq_, front_seq);
         seq < frontier; ++seq) {
      DynInst& di = rob_[static_cast<std::size_t>(seq - front_seq)];
      if (di.state != InstState::kWaiting &&
          (!di.is_branch() || di.branch_resolved)) {
        promote_shadow(di);
      }
    }
    promoted_below_seq_ = frontier;
  }

  for (int n = 0; n < config_.commit_width && !rob_.empty(); ++n) {
    DynInst& head = rob_.front();
    if (head.state != InstState::kDone) break;
    // Retirement pipeline: completion-to-retire takes commit_delay cycles.
    if (cycle_ < head.done_cycle + static_cast<Cycle>(config_.commit_delay)) {
      break;
    }

    if (head.fault != Fault::kNone) {
      raise_fault(head);
      return;  // pipeline redirected; stop committing this cycle
    }
    commit_one(head);
    rob_.pop_front();
    if (halted_) return;
  }
}

void Core::commit_one(DynInst& head) {
  // Architectural register update (commit_xor is 0 outside mutation
  // testing, where it simulates a corrupted writeback datapath).
  if (head.inst.writes_register()) {
    regs_[head.inst.dst] = head.result ^ config_.mutation.commit_xor;
    if (rename_[head.inst.dst] == head.seq) rename_[head.inst.dst] = 0;
  }

  switch (head.inst.op) {
    case OpClass::kStore:
      // TSO: the store's memory and cache side effects happen at commit,
      // which is why stores need no shadow structure (§IV-B).
      mem_->write64(head.physical_addr, head.src2_value);
      hierarchy_.fill_all_levels(line_of(head.physical_addr), Side::kData);
      assert(stores_.front() == head.seq);
      stores_.erase(stores_.begin());
      ++stats_.committed_stores;
      break;
    case OpClass::kLoad:
      --loads_in_flight_;
      ++stats_.committed_loads;
      break;
    case OpClass::kFlush:
      hierarchy_.flush_line(line_of(head.physical_addr));
      break;
    case OpClass::kFence:
      fence_active_ = false;
      break;
    case OpClass::kHalt:
      halted_ = true;
      stop_reason_ = StopReason::kHalted;
      // Drain: anything younger can never commit; annul its shadow state
      // so end-of-run invariants (empty shadow tables) hold.
      squash_younger_than(head.seq, head.pc);
      fetch_stalled_ = true;
      break;
    default:
      break;
  }
  if (head.is_branch()) ++stats_.committed_branches;

  // WFC: shadow state is promoted only now, when the producing
  // instruction is guaranteed architectural (§III "wait-for-commit").
  // Under WFB the promotion step of stage_commit already promoted;
  // promote_shadow is idempotent via shadow_promoted. Baseline holds no
  // references.
  promote_shadow(head);

  ++stats_.committed_instrs;
}

void Core::raise_fault(DynInst& head) {
  ++stats_.faults;
  ++stats_.squashes;
  // The faulting instruction never commits: its own shadow state is
  // annulled (under WFC this is exactly what stops Meltdown — the
  // dependent gadget load's line dies here too, with the rest of the
  // younger window).
  release_shadow(head);
  // The head is kDone, so of the scheduler worklists only
  // unresolved_branches_ can hold it (wfb_pending_ was drained at the top
  // of stage_commit); a head store is the front of stores_.
  if (head.is_branch()) erase_seq(unresolved_branches_, head.seq);
  if (head.is_load()) --loads_in_flight_;
  if (head.is_store()) stores_.erase(stores_.begin());
  const SeqNum seq = head.seq;
  const auto handler = program_->fault_handler();
  squash_younger_than(seq, handler.value_or(0));
  // Remove the faulting head itself.
  rob_.pop_front();
  rebuild_rename_map();
  if (!handler.has_value()) {
    halted_ = true;
    stop_reason_ = StopReason::kFaultNoHandler;
  }
}

bool Core::older_unresolved_branch_exists(SeqNum seq) const {
  return !unresolved_branches_.empty() && unresolved_branches_.front() < seq;
}

void Core::note_promotable(const DynInst& di) {
  // promoted_below_seq_ stays 0 unless the policy promotes at resolution.
  if (di.seq < promoted_below_seq_) insert_seq(wfb_pending_, di.seq);
}

void Core::erase_seq(std::vector<SeqNum>& seqs, SeqNum seq) {
  const auto it = std::lower_bound(seqs.begin(), seqs.end(), seq);
  if (it != seqs.end() && *it == seq) seqs.erase(it);
}

void Core::insert_seq(std::vector<SeqNum>& seqs, SeqNum seq) {
  if (seqs.empty() || seqs.back() < seq) {
    seqs.push_back(seq);
    return;
  }
  seqs.insert(std::lower_bound(seqs.begin(), seqs.end(), seq), seq);
}

void Core::truncate_above(std::vector<SeqNum>& seqs, SeqNum seq) {
  while (!seqs.empty() && seqs.back() > seq) seqs.pop_back();
}

// --------------------------------------------------------------------------
// Shadow promotion / annulment.
// --------------------------------------------------------------------------

void Core::promote_shadow(DynInst& di) {
  if (di.shadow_promoted) {
    // WFB already moved the state; nothing left to do at commit.
    di.shadow_dline = DynInst::kNoShadow;
    di.shadow_iline = DynInst::kNoShadow;
    di.shadow_dtlb = DynInst::kNoShadow;
    di.shadow_itlb = DynInst::kNoShadow;
    di.walker_refs.clear();
    return;
  }
  di.shadow_promoted = true;
  if (di.shadow_dline != DynInst::kNoShadow || !di.walker_refs.empty()) {
    LOG_DEBUG("promote pc=0x" << std::hex << di.pc << std::dec << " @"
                              << cycle_ << " dline=" << di.shadow_dline
                              << " walkers=" << di.walker_refs.size());
  }
  if (di.shadow_dline != DynInst::kNoShadow) {
    const Addr line = shadow_dcache_.key(di.shadow_dline);
    shadow_dcache_.mark_promoted(di.shadow_dline);
    hierarchy_.fill_all_levels(line, Side::kData);
    shadow_dcache_.release(di.shadow_dline);
    di.shadow_dline = DynInst::kNoShadow;
  }
  di.walker_refs.for_each([this](int ref) {
    const Addr line = shadow_dcache_.key(ref);
    shadow_dcache_.mark_promoted(ref);
    hierarchy_.fill_all_levels(line, Side::kData);
    shadow_dcache_.release(ref);
  });
  di.walker_refs.clear();
  if (di.shadow_iline != DynInst::kNoShadow) {
    const Addr line = shadow_icache_.key(di.shadow_iline);
    shadow_icache_.mark_promoted(di.shadow_iline);
    hierarchy_.fill_all_levels(line, Side::kInstr);
    shadow_icache_.release(di.shadow_iline);
    di.shadow_iline = DynInst::kNoShadow;
  }
  if (di.shadow_dtlb != DynInst::kNoShadow) {
    const auto& payload = shadow_dtlb_.payload_of(di.shadow_dtlb);
    shadow_dtlb_.mark_promoted(di.shadow_dtlb);
    dtlb_.fill({shadow_dtlb_.key(di.shadow_dtlb), payload.ppage,
                payload.kernel_only});
    shadow_dtlb_.release(di.shadow_dtlb);
    di.shadow_dtlb = DynInst::kNoShadow;
  }
  if (di.shadow_itlb != DynInst::kNoShadow) {
    const auto& payload = shadow_itlb_.payload_of(di.shadow_itlb);
    shadow_itlb_.mark_promoted(di.shadow_itlb);
    itlb_.fill({shadow_itlb_.key(di.shadow_itlb), payload.ppage,
                payload.kernel_only});
    shadow_itlb_.release(di.shadow_itlb);
    di.shadow_itlb = DynInst::kNoShadow;
  }
}

void Core::release_shadow(DynInst& di) {
  if (config_.mutation.skip_squash_release) {
    // Injected defect (mutation testing): drop the references without
    // releasing them. The shadow entries stay live forever, so the
    // empty-shadows-after-drain invariant must trip.
    di.shadow_dline = DynInst::kNoShadow;
    di.shadow_iline = DynInst::kNoShadow;
    di.shadow_dtlb = DynInst::kNoShadow;
    di.shadow_itlb = DynInst::kNoShadow;
    di.walker_refs.clear();
    return;
  }
  // Squash handling is a policy decision point: every shipped policy
  // annuls in place (Fig 3); a policy answering false promotes squashed
  // state anyway — the insecure strawman for annulment-cost ablations.
  if (!annul_on_squash_) {
    promote_shadow(di);
    return;
  }
  if (di.shadow_dline != DynInst::kNoShadow || !di.walker_refs.empty()) {
    LOG_DEBUG("release pc=0x" << std::hex << di.pc << std::dec << " @"
                              << cycle_ << " dline=" << di.shadow_dline
                              << " walkers=" << di.walker_refs.size());
  }
  if (di.shadow_dline != DynInst::kNoShadow) {
    shadow_dcache_.release(di.shadow_dline);
    di.shadow_dline = DynInst::kNoShadow;
  }
  di.walker_refs.for_each([this](int ref) { shadow_dcache_.release(ref); });
  di.walker_refs.clear();
  if (di.shadow_iline != DynInst::kNoShadow) {
    shadow_icache_.release(di.shadow_iline);
    di.shadow_iline = DynInst::kNoShadow;
  }
  if (di.shadow_dtlb != DynInst::kNoShadow) {
    shadow_dtlb_.release(di.shadow_dtlb);
    di.shadow_dtlb = DynInst::kNoShadow;
  }
  if (di.shadow_itlb != DynInst::kNoShadow) {
    shadow_itlb_.release(di.shadow_itlb);
    di.shadow_itlb = DynInst::kNoShadow;
  }
}

// --------------------------------------------------------------------------
// Issue / execute.
// --------------------------------------------------------------------------

void Core::stage_issue() {
  // ready_ is seq-ordered, so candidates are tried oldest-first. Compacts
  // in place: ready_[0, kept) holds the entries that must retry.
  int issued = 0;
  std::size_t kept = 0;
  std::size_t i = 0;
  for (; i < ready_.size() && issued < config_.issue_width; ++i) {
    const SeqNum seq = ready_[i];
    DynInst& di = *find_by_seq(seq);
    assert(di.state == InstState::kWaiting && di.src1_ready && di.src2_ready);
    // A fence executes only once it is the oldest instruction (its whole
    // ordering purpose).
    if ((di.inst.op == OpClass::kFence && rob_.front().seq != seq) ||
        !execute(di)) {
      ready_[kept++] = seq;
      continue;
    }
    di.state = InstState::kIssued;
    --waiting_;
    insert_seq(in_flight_, seq);
    next_complete_cycle_ = std::min(next_complete_cycle_, di.done_cycle);
    // A branch becomes promotable only when it resolves.
    if (!di.is_branch()) note_promotable(di);
    ++issued;
  }
  ready_.erase(ready_.begin() + static_cast<std::ptrdiff_t>(kept),
               ready_.begin() + static_cast<std::ptrdiff_t>(i));
}

bool Core::execute(DynInst& di) {
  using isa::AluOp;
  Cycle latency = config_.alu_latency;

  switch (di.inst.op) {
    case OpClass::kNop:
    case OpClass::kFence:
    case OpClass::kHalt:
      break;
    case OpClass::kAlu: {
      const std::uint64_t b = di.inst.use_imm
                                  ? static_cast<std::uint64_t>(di.inst.imm)
                                  : di.src2_value;
      di.result = isa::eval_alu(di.inst.alu, di.src1_value, b);
      break;
    }
    case OpClass::kMul: {
      const std::uint64_t b = di.inst.use_imm
                                  ? static_cast<std::uint64_t>(di.inst.imm)
                                  : di.src2_value;
      di.result = isa::eval_alu(di.inst.alu, di.src1_value, b);
      latency = config_.mul_latency;
      break;
    }
    case OpClass::kDiv: {
      const std::uint64_t b = di.inst.use_imm
                                  ? static_cast<std::uint64_t>(di.inst.imm)
                                  : di.src2_value;
      di.result = isa::eval_alu(di.inst.alu, di.src1_value, b);
      latency = config_.div_latency;
      break;
    }
    case OpClass::kRdCycle:
      di.result = cycle_;
      break;
    case OpClass::kBranch:
    case OpClass::kJump:
    case OpClass::kBranchIndirect:
    case OpClass::kRet:
      break;
    case OpClass::kCall:
      di.result = di.pc + isa::kInstrBytes;  // link value
      break;
    case OpClass::kLoad: {
      di.effective_addr = di.src1_value + static_cast<std::uint64_t>(di.inst.imm);

      // Memory ordering: visit the older stores, oldest first. Any with
      // an unknown address blocks us (conservative disambiguation); the
      // youngest one to the same word forwards its data.
      const Addr word = di.effective_addr >> 3;
      const DynInst* forwarding_store = nullptr;
      for (const SeqNum seq : stores_) {
        if (seq > di.seq) break;
        const DynInst& store = *find_by_seq(seq);
        if (store.state == InstState::kWaiting) return false;  // addr unknown
        if ((store.effective_addr >> 3) == word) forwarding_store = &store;
      }
      if (forwarding_store != nullptr) {
        di.result = forwarding_store->src2_value;
        di.store_forwarded = true;
        latency = config_.alu_latency;  // forwarded from the store queue
        break;
      }

      bool stall = false;
      Cycle mem_latency = translate_data(di, stall);
      if (stall) {
        ++stats_.shadow_stall_cycles;
        return false;
      }
      if (di.fault == Fault::kUnmapped) {
        di.result = 0;
        latency = config_.hierarchy.memory_latency;
        break;
      }
      mem_latency += access_dcache(di, stall);
      if (stall) {
        // The cache access could not take a shadow entry (kStall): undo
        // nothing (translate_data's shadow-TLB ref stays; retry reuses it
        // via the acquire path) and retry next cycle.
        ++stats_.shadow_stall_cycles;
        return false;
      }
      // P1: the speculative load observes the real data even when the
      // permission check failed — the check only bites at commit.
      di.result = mem_->read64(di.physical_addr);
      latency = mem_latency;
      LOG_DEBUG("load pc=0x" << std::hex << di.pc << std::dec << " issue@"
                             << cycle_ << " lat=" << latency << " addr=0x"
                             << std::hex << di.effective_addr);
      break;
    }
    case OpClass::kStore: {
      di.effective_addr =
          di.src1_value + static_cast<std::uint64_t>(di.inst.imm);
      bool stall = false;
      const Cycle translation = translate_data(di, stall);
      if (stall) {
        ++stats_.shadow_stall_cycles;
        return false;
      }
      latency = config_.alu_latency + translation;
      break;
    }
    case OpClass::kFlush: {
      di.effective_addr =
          di.src1_value + static_cast<std::uint64_t>(di.inst.imm);
      bool stall = false;
      const Cycle translation = translate_data(di, stall);
      if (stall) {
        ++stats_.shadow_stall_cycles;
        return false;
      }
      latency = config_.alu_latency + translation;
      break;
    }
  }

  di.done_cycle = cycle_ + std::max<Cycle>(1, latency);
  return true;
}

Cycle Core::translate_data(DynInst& di, bool& stall) {
  if (di.translated || di.fault != Fault::kNone) return 0;  // retry path
  const Addr vpage = page_of(di.effective_addr);

  memory::TlbEntry entry;
  bool have_translation = false;
  Cycle latency = 0;

  if (const auto hit = dtlb_.access(vpage); hit.has_value()) {
    entry = *hit;
    have_translation = true;
  } else if (protection_on()) {
    if (const auto id = shadow_dtlb_.acquire_existing(vpage);
        id != shadow::ShadowTlb::kNone) {
      const auto& payload = shadow_dtlb_.payload_of(id);
      entry = {vpage, payload.ppage, payload.kernel_only};
      have_translation = true;
      latency += 1;  // shadow TLB lookup
      if (di.shadow_dtlb == DynInst::kNoShadow) {
        di.shadow_dtlb = id;
      } else {
        shadow_dtlb_.release(id);  // already hold a ref from a prior retry
      }
    }
  }

  if (!have_translation) {
    latency += walk_page_table(&di, vpage);
    const auto xlat = page_table_->translate(vpage);
    if (!xlat.present) {
      di.fault = Fault::kUnmapped;
      return latency;
    }
    entry = {vpage, xlat.ppage, xlat.kernel_only};
    if (protection_on()) {
      const auto id = shadow_dtlb_.insert(vpage, {xlat.ppage,
                                                  xlat.kernel_only});
      if (id == shadow::ShadowTlb::kNone &&
          shadow_dtlb_.config().full_policy == FullPolicy::kStall) {
        stall = true;
        return latency;
      }
      di.shadow_dtlb = id;  // kNone under kDrop: translation simply unshadowed
    } else {
      dtlb_.fill(entry);
    }
  }

  di.physical_addr = (entry.ppage << kPageShift) + page_offset(di.effective_addr);
  di.translated = true;
  // Deferred permission check (P1): record the fault, keep executing.
  if (entry.kernel_only && priv_ == memory::PrivLevel::kUser) {
    di.fault = Fault::kPermission;
  }
  return latency;
}

Cycle Core::walk_page_table(DynInst* di, Addr vpage) {
  Cycle latency = 0;
  Addr walk_lines[memory::PageTable::kWalkLevels];
  page_table_->walk_addresses(vpage, walk_lines);
  for (const Addr entry_addr : walk_lines) {
    if (!protection_on()) {
      latency += hierarchy_
                     .timed_access(entry_addr, Side::kData,
                                   CacheHierarchy::Fill::kYes,
                                   /*count_stats=*/false)
                     .latency;
      continue;
    }
    // SafeSpec: walker lines ride the d-cache shadow like any speculative
    // load (§IV-A). Full table => drop (walks never stall the pipeline).
    const Addr line = line_of(entry_addr);
    if (const auto id = shadow_dcache_.acquire_existing(line, false);
        id != shadow::ShadowCache::kNone) {
      latency += config_.shadow_hit_latency;
      if (di != nullptr) {
        di->walker_refs.push_back(id);
      } else {
        shadow_dcache_.release(id);
      }
      continue;
    }
    const auto outcome = hierarchy_.timed_access(
        entry_addr, Side::kData, CacheHierarchy::Fill::kNo,
        /*count_stats=*/false);
    latency += outcome.latency;
    if (outcome.level != memory::HitLevel::kL1) {
      const auto id = shadow_dcache_.insert(line, {});
      if (id != shadow::ShadowCache::kNone) {
        if (di != nullptr) {
          di->walker_refs.push_back(id);
        } else {
          shadow_dcache_.release(id);
        }
      }
    }
  }
  return latency;
}

Cycle Core::access_dcache(DynInst& di, bool& stall) {
  const Addr paddr = di.physical_addr;
  if (!protection_on()) {
    return hierarchy_
        .timed_access(paddr, Side::kData, CacheHierarchy::Fill::kYes)
        .latency;
  }
  const Addr line = line_of(paddr);
  if (di.shadow_dline != DynInst::kNoShadow) {
    // Retry after a stall elsewhere: we already hold the line.
    return config_.shadow_hit_latency;
  }
  // Primary-first lookup order, as in the design: the L1 is checked, then
  // the shadow structure, then the lower levels — with no fills and no
  // replacement-state updates anywhere on this speculative path.
  if (hierarchy_.l1d().access(line, /*update_replacement=*/false)) {
    return hierarchy_.l1d().config().hit_latency;
  }
  if (const auto id = shadow_dcache_.acquire_existing(line);
      id != shadow::ShadowCache::kNone) {
    di.shadow_dline = id;
    return config_.shadow_hit_latency;
  }
  Cycle latency;
  if (hierarchy_.l2().access(line, false)) {
    latency = hierarchy_.l2().config().hit_latency;
  } else if (hierarchy_.l3().access(line, false)) {
    latency = hierarchy_.l3().config().hit_latency;
  } else {
    latency = config_.hierarchy.memory_latency;
  }
  const auto id = shadow_dcache_.insert(line, {});
  if (id == shadow::ShadowCache::kNone) {
    // Forward-progress guarantee for kStall: if this instruction's own
    // page-walker lines are (part of) what fills the table, stalling
    // would deadlock — it waits on entries only its own commit releases.
    // Degrade to drop in that case.
    if (shadow_dcache_.config().full_policy == FullPolicy::kStall &&
        di.walker_refs.empty()) {
      stall = true;
      return 0;
    }
    // kDrop: the update to the committed state is lost (§V) — the load
    // still gets its value, but nothing will be promoted at commit.
    return latency;
  }
  di.shadow_dline = id;
  return latency;
}

// --------------------------------------------------------------------------
// Dispatch.
// --------------------------------------------------------------------------

void Core::bind_operand(SeqNum consumer, RegIndex reg, std::uint64_t& value,
                        bool& ready, SeqNum& producer) {
  const SeqNum prod = rename_[reg];
  if (prod == 0) {
    value = regs_[reg];
    ready = true;
    return;
  }
  DynInst* p = find_by_seq(prod);
  if (p != nullptr && p->state == InstState::kDone) {
    value = p->result;
    ready = true;
    return;
  }
  ready = false;
  producer = prod;
  // Register on the producer's wakeup list so completion wakes exactly
  // its consumers instead of scanning the younger ROB suffix.
  if (p != nullptr) p->note_dependent(consumer);
}

DynInst* Core::find_by_seq(SeqNum seq) {
  if (rob_.empty()) return nullptr;
  const SeqNum front_seq = rob_.front().seq;
  if (seq < front_seq || seq - front_seq >= rob_.size()) return nullptr;
  DynInst& di = rob_[static_cast<std::size_t>(seq - front_seq)];
  assert(di.seq == seq && "ROB seqs must be contiguous");
  return &di;
}

void Core::wake_dependents(const DynInst& producer) {
  // Delivers the result to each operand bound to `producer`; a consumer
  // whose last missing operand this was joins ready_.
  const auto wake = [this, &producer](DynInst& di) {
    if (di.src1_ready && di.src2_ready) return;
    if (!di.src1_ready && di.src1_producer == producer.seq) {
      di.src1_value = producer.result;
      di.src1_ready = true;
    }
    if (!di.src2_ready && di.src2_producer == producer.seq) {
      di.src2_value = producer.result;
      di.src2_ready = true;
    }
    if (di.src1_ready && di.src2_ready) insert_seq(ready_, di.seq);
  };
  // Common case: visit exactly the consumers that bound an operand to
  // this producer at dispatch. A recorded seq can be stale (its consumer
  // squashed and the seq reused after the rewind), so each entry is
  // re-validated against the consumer's recorded producer — the same
  // predicate the suffix scan applies, which makes a stale entry either
  // inert or a genuine dependent that re-bound under the reused seq.
  if (!producer.dep_overflow) {
    for (int i = 0; i < producer.dep_count; ++i) {
      if (DynInst* di = find_by_seq(producer.deps[i])) wake(*di);
    }
    return;
  }
  // Overflow (more dependents than the inline list holds): walk the
  // younger ROB suffix, starting one past the producer's slot.
  const SeqNum front_seq = rob_.front().seq;
  for (std::size_t i =
           static_cast<std::size_t>(producer.seq - front_seq) + 1;
       i < rob_.size(); ++i) {
    wake(rob_[i]);
  }
}

bool Core::dispatch_blocked(const FetchedInst& fi) const {
  return fence_active_ || rob_full() || waiting_ >= config_.iq_entries ||
         (fi.inst.op == OpClass::kLoad &&
          loads_in_flight_ >= config_.ldq_entries) ||
         (fi.inst.op == OpClass::kStore &&
          static_cast<int>(stores_.size()) >= config_.stq_entries);
}

void Core::stage_dispatch() {
  for (int n = 0; n < config_.issue_width; ++n) {
    if (fetch_queue_.empty()) return;
    const FetchedInst& fi = fetch_queue_.front();
    if (fi.ready_at > cycle_ || dispatch_blocked(fi)) return;

    // Filled in its ROB slot: a DynInst is ~300 bytes.
    DynInst& di = rob_.emplace_back();
    di.seq = next_seq_++;
    di.pc = fi.pc;
    di.inst = fi.inst;
    di.predicted_taken = fi.predicted_taken;
    di.predicted_next = fi.predicted_next;
    di.target_known = fi.predicted_next != 0 || !fi.inst.is_branch();
    di.shadow_iline = fi.shadow_iline;
    di.shadow_itlb = fi.shadow_itlb;

    // Operand binding. Which sources an op reads:
    const bool reads_src1 =
        fi.inst.op == OpClass::kAlu || fi.inst.op == OpClass::kMul ||
        fi.inst.op == OpClass::kDiv || fi.inst.op == OpClass::kLoad ||
        fi.inst.op == OpClass::kStore || fi.inst.op == OpClass::kBranch ||
        fi.inst.op == OpClass::kBranchIndirect || fi.inst.op == OpClass::kRet ||
        fi.inst.op == OpClass::kFlush;
    const bool reads_src2 =
        (fi.inst.op == OpClass::kAlu || fi.inst.op == OpClass::kMul ||
         fi.inst.op == OpClass::kDiv) && !fi.inst.use_imm;
    const bool reads_src2_always =
        fi.inst.op == OpClass::kStore || fi.inst.op == OpClass::kBranch;

    if (reads_src1) {
      bind_operand(di.seq, fi.inst.src1, di.src1_value, di.src1_ready,
                   di.src1_producer);
    }
    if (reads_src2 || reads_src2_always) {
      bind_operand(di.seq, fi.inst.src2, di.src2_value, di.src2_ready,
                   di.src2_producer);
    }

    if (di.inst.writes_register()) rename_[di.inst.dst] = di.seq;
    if (di.inst.op == OpClass::kBranch ||
        di.inst.op == OpClass::kBranchIndirect ||
        di.inst.op == OpClass::kRet) {
      unresolved_branches_.push_back(di.seq);  // seqs ascend: stays sorted
    }
    if (di.is_load()) ++loads_in_flight_;
    if (di.is_store()) stores_.push_back(di.seq);  // seqs ascend: sorted
    if (di.inst.op == OpClass::kFence) fence_active_ = true;
    ++waiting_;
    // Seqs ascend, so appending keeps ready_ sorted.
    if (di.src1_ready && di.src2_ready) ready_.push_back(di.seq);

    fetch_queue_.pop_front();
  }
}

// --------------------------------------------------------------------------
// Fetch.
// --------------------------------------------------------------------------

void Core::stage_fetch() {
  if (halted_ || fetch_stalled_) return;
  if (cycle_ < fetch_busy_until_) return;
  if (static_cast<int>(fetch_queue_.size()) >= kFetchBufferCap) return;

  Addr last_line_touched = ~Addr{0};

  for (int n = 0; n < config_.fetch_width; ++n) {
    const isa::Instruction* inst = fetch_decode(fetch_pc_);
    if (inst == nullptr) {
      // Speculated (or fell) into unmapped text: stall until redirected.
      fetch_stalled_ = true;
      break;
    }

    // ---- iTLB ----------------------------------------------------------
    const Addr vpage = page_of(fetch_pc_);
    Addr ppage = vpage;
    bool have_xlat = false;
    if (const auto hit = itlb_.access(vpage); hit.has_value()) {
      ppage = hit->ppage;
      have_xlat = true;
    } else if (protection_on()) {
      if (pending_itlb_ != DynInst::kNoShadow &&
          shadow_itlb_.key(pending_itlb_) == vpage) {
        // Resuming after the walk that created this entry.
        ppage = shadow_itlb_.payload_of(pending_itlb_).ppage;
        have_xlat = true;
      } else if (const auto id = shadow_itlb_.acquire_existing(vpage);
                 id != shadow::ShadowTlb::kNone) {
        ppage = shadow_itlb_.payload_of(id).ppage;
        have_xlat = true;
        if (pending_itlb_ != DynInst::kNoShadow) {
          shadow_itlb_.release(pending_itlb_);
        }
        pending_itlb_ = id;
      }
    }
    if (!have_xlat) {
      // i-side page walk. Walker lines use non-filling accesses (see
      // header note); timing is charged as a fetch bubble.
      const Cycle walk = walk_page_table(nullptr, vpage);
      const auto xlat = page_table_->translate(vpage);
      if (!xlat.present) {
        fetch_stalled_ = true;
        break;
      }
      ppage = xlat.ppage;
      if (protection_on()) {
        const auto id = shadow_itlb_.insert(vpage, {xlat.ppage,
                                                    xlat.kernel_only});
        if (id == shadow::ShadowTlb::kNone &&
            shadow_itlb_.config().full_policy == FullPolicy::kStall) {
          fetch_busy_until_ = cycle_ + 1;  // retry next cycle
          break;
        }
        pending_itlb_ = id;
      } else {
        itlb_.fill({vpage, xlat.ppage, xlat.kernel_only});
      }
      fetch_busy_until_ = cycle_ + std::max<Cycle>(1, walk);
      break;  // resume after the walk
    }

    // ---- i-cache ---------------------------------------------------------
    const Addr fetch_paddr = (ppage << kPageShift) + page_offset(fetch_pc_);
    const Addr line = line_of(fetch_paddr);
    // Per-instruction accounting (Figs 14/15): every fetched instruction
    // is served by exactly one of L1I, the shadow i-cache, or a lower
    // level. Several instructions usually share one line — the spatial
    // locality that makes the shadow i-cache's share of hits high while
    // a line is still speculative.
    ++stats_.fetch_accesses;
    if (line != last_line_touched) {
      last_line_touched = line;
      if (!protection_on()) {
        const auto outcome = hierarchy_.timed_access(
            fetch_paddr, Side::kInstr, CacheHierarchy::Fill::kYes);
        if (outcome.level != memory::HitLevel::kL1) {
          ++stats_.fetch_misses;
          fetch_busy_until_ = cycle_ + outcome.latency;
          break;  // line now resident; resume after the miss
        }
        ++stats_.fetch_l1i_hits;
      } else if (pending_iline_ != DynInst::kNoShadow &&
                 shadow_icache_.key(pending_iline_) == line) {
        // Resuming after the miss that inserted this line: already held.
        ++stats_.fetch_shadow_hits;
      } else if (hierarchy_.l1i().access(line, /*update_replacement=*/false)) {
        ++stats_.fetch_l1i_hits;
      } else {
        if (const auto id = shadow_icache_.acquire_existing(line);
            id != shadow::ShadowCache::kNone) {
          if (pending_iline_ != DynInst::kNoShadow) {
            shadow_icache_.release(pending_iline_);
          }
          pending_iline_ = id;  // shadow hit: no bubble (lookup-table read)
          ++stats_.fetch_shadow_hits;
        } else {
          Cycle latency;
          if (hierarchy_.l2().access(line, false)) {
            latency = hierarchy_.l2().config().hit_latency;
          } else if (hierarchy_.l3().access(line, false)) {
            latency = hierarchy_.l3().config().hit_latency;
          } else {
            latency = config_.hierarchy.memory_latency;
          }
          const auto id2 = shadow_icache_.insert(line, {});
          if (id2 == shadow::ShadowCache::kNone &&
              shadow_icache_.config().full_policy == FullPolicy::kStall) {
            --stats_.fetch_accesses;  // retried next cycle
            fetch_busy_until_ = cycle_ + 1;
            break;
          }
          ++stats_.fetch_misses;
          pending_iline_ = id2;
          fetch_busy_until_ = cycle_ + latency;
          break;  // resume once the line is in the shadow i-cache
        }
      }
    } else {
      // Subsequent instruction from the same fetch line.
      if (protection_on() && pending_iline_ != DynInst::kNoShadow &&
          shadow_icache_.key(pending_iline_) == line) {
        shadow_icache_.stats().hits.add();
        ++stats_.fetch_shadow_hits;
      } else if (protection_on() && pending_iline_ == DynInst::kNoShadow &&
                 shadow_icache_.contains(line)) {
        pending_iline_ = shadow_icache_.acquire_existing(line);  // counts hit
        ++stats_.fetch_shadow_hits;
      } else {
        hierarchy_.l1i().access(line, /*update_replacement=*/!protection_on());
        ++stats_.fetch_l1i_hits;
      }
    }

    // ---- decode + predict -----------------------------------------------
    FetchedInst fi;
    fi.pc = fetch_pc_;
    fi.inst = *inst;
    fi.ready_at = cycle_ + static_cast<Cycle>(config_.fetch_to_dispatch_delay);
    fi.shadow_iline = pending_iline_;
    fi.shadow_itlb = pending_itlb_;
    pending_iline_ = DynInst::kNoShadow;
    pending_itlb_ = DynInst::kNoShadow;
    ++stats_.fetched_instrs;

    if (inst->op == OpClass::kHalt) {
      fetch_queue_.push_back(fi);
      fetch_stalled_ = true;  // nothing sensible follows a halt
      break;
    }
    if (inst->is_branch()) {
      const auto pred = predictor_.predict(fetch_pc_, *inst);
      fi.predicted_taken = pred.taken;
      if (!pred.target_known) {
        fi.predicted_next = 0;  // no target: stall until resolution
        fetch_queue_.push_back(fi);
        fetch_stalled_ = true;
        break;
      }
      fi.predicted_next =
          pred.taken ? pred.target : fetch_pc_ + isa::kInstrBytes;
      fetch_queue_.push_back(fi);
      fetch_pc_ = fi.predicted_next;
      if (pred.taken) break;  // taken-branch fetch break
      continue;
    }

    fi.predicted_next = fetch_pc_ + isa::kInstrBytes;
    fetch_queue_.push_back(fi);
    fetch_pc_ += isa::kInstrBytes;
  }
}

// --------------------------------------------------------------------------
// Phase control.
// --------------------------------------------------------------------------

void Core::restart_at(Addr pc) {
  for (DynInst& di : rob_) release_shadow(di);
  for (FetchedInst& fi : fetch_queue_) {
    if (fi.shadow_iline != DynInst::kNoShadow) {
      shadow_icache_.release(fi.shadow_iline);
    }
    if (fi.shadow_itlb != DynInst::kNoShadow) {
      shadow_itlb_.release(fi.shadow_itlb);
    }
  }
  rob_.clear();
  fetch_queue_.clear();
  release_pending_fetch_refs();
  unresolved_branches_.clear();
  ready_.clear();
  in_flight_.clear();
  wfb_pending_.clear();
  stores_.clear();
  waiting_ = 0;
  next_complete_cycle_ = kNeverCycle;
  promoted_below_seq_ = 0;
  std::fill(std::begin(rename_), std::end(rename_), SeqNum{0});
  loads_in_flight_ = 0;
  fence_active_ = false;
  fetch_stalled_ = false;
  fetch_busy_until_ = cycle_ + 1;
  fetch_pc_ = pc;
  halted_ = false;
}

Addr Core::next_commit_pc() const {
  if (!rob_.empty()) return rob_.front().pc;
  if (!fetch_queue_.empty()) return fetch_queue_.front().pc;
  return fetch_pc_;
}

void Core::restore_arch(const std::array<std::uint64_t, kNumArchRegs>& regs,
                        Addr pc) {
  for (int r = 0; r < kNumArchRegs; ++r) {
    set_reg(static_cast<RegIndex>(r), regs[static_cast<std::size_t>(r)]);
  }
  restart_at(pc);
}

}  // namespace safespec::cpu
