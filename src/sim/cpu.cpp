#include "sim/cpu.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "obs/trace.hpp"

namespace vuv {

namespace {

/// Runtime functional-unit occupancy, one fixed-size slot array per class.
/// Same semantics the old per-class Pool had (per-instance busy-until
/// times, nth-smallest free query, first-free take) but allocation-free:
/// free_at used to copy the busy vector onto the heap for every query,
/// once per used FU class per simulated VLIW word. Each class also keeps
/// its latest busy-until time, which bounds every free_at answer from
/// above, so issue runs free_at only when an instance is busy past it.
class FuTracker {
 public:
  static constexpr i32 kMaxPerClass = 16;

  explicit FuTracker(const MachineConfig& cfg) {
    init(FuClass::kInt, cfg.int_units);
    init(FuClass::kMem, cfg.l1_ports);
    init(FuClass::kBranch, cfg.branch_units);
    init(FuClass::kSimd, cfg.simd_units);
    init(FuClass::kVec, cfg.vec_units);
    init(FuClass::kVecMem, cfg.l2_ports);
  }

  /// Earliest cycle at which `want` instances of class `f` are
  /// simultaneously free: the want-th smallest busy-until time.
  /// Precondition (checked at lowering): 1 <= want <= instance count.
  Cycle free_at(u8 f, i32 want) const {
    const Slots& s = cls_[f];
    std::array<Cycle, kMaxPerClass> b;
    std::copy_n(s.busy.begin(), static_cast<size_t>(s.n), b.begin());
    for (i32 i = 0; i < want; ++i) {
      i32 m = i;
      for (i32 j = i + 1; j < s.n; ++j)
        if (b[static_cast<size_t>(j)] < b[static_cast<size_t>(m)]) m = j;
      std::swap(b[static_cast<size_t>(i)], b[static_cast<size_t>(m)]);
    }
    return b[static_cast<size_t>(want - 1)];
  }

  /// The largest busy-until time of class `f`: free_at(f, want) <= it for
  /// every want.
  Cycle latest(u8 f) const { return cls_[f].latest; }

  /// Occupy the first free instance; returns its index (for tracing).
  i32 take(u8 f, Cycle t, Cycle occ) {
    Slots& s = cls_[f];
    for (i32 i = 0; i < s.n; ++i)
      if (s.busy[static_cast<size_t>(i)] <= t) {
        const Cycle until = t + std::max<Cycle>(occ, 1);
        s.busy[static_cast<size_t>(i)] = until;
        s.latest = std::max(s.latest, until);
        return i;
      }
    throw InternalError("pool take with no free instance");
  }

 private:
  struct Slots {
    std::array<Cycle, kMaxPerClass> busy{};
    i32 n = 0;
    Cycle latest = 0;  // max of busy: take only ever raises a slot
  };

  void init(FuClass f, i32 count) {
    VUV_CHECK(count <= kMaxPerClass,
              "functional-unit class exceeds the tracker capacity");
    cls_[static_cast<size_t>(f)].n = std::max(count, 0);
  }

  std::array<Slots, 7> cls_;
};

/// What one configuration owns in a replay: its timing state. The
/// functional half (CpuState, MainMemory, the control-flow walk and the
/// dynamic op, µop and word counts) belongs to the walk, which every
/// Timing of a group shares. The memory system is held by pointer so a
/// one-configuration run keeps it a separate stack object.
struct Timing {
  Timing(const MachineConfig& cfg, const ExecImage& im, MemorySystem& ms)
      : board(im.n_slots, 0), mem_delayed(im.n_slots, 0), fus(cfg),
        memsys(&ms) {
    res.config_name = cfg.name;
    res.regions.resize(std::max<size_t>(im.region_names.size(), 1));
    for (size_t i = 0; i < im.region_names.size(); ++i)
      res.regions[i].name = im.region_names[i];
  }

  // Flat scoreboard: per-register ready times for every register file, the
  // vector-register chain points, and the VL/VS special registers, all in
  // one array indexed by the slots the image predecoded (see sim/image.hpp).
  std::vector<Cycle> board;
  // Stall attribution state, parallel to the scoreboard: whether the last
  // writer of a slot was a memory operation that completed later than the
  // compiler's hit-latency assumption. A dependency stall on such a slot is
  // charged to memory; on any other slot it is a scheduling-visibility RAW.
  std::vector<u8> mem_delayed;
  FuTracker fus;
  MemorySystem* memsys;
  SimResult res;
  RegionStats* reg = nullptr;  // the current block's region in res
  Cycle now = 0;               // entry time of the current block
  Cycle issue = 0;             // issue time of the block's latest word
  std::exception_ptr error;    // a group member's own failure (budget)
};

/// Take resources and set ready times for one executed op, on one
/// configuration's timing state.
template <bool kGroup>
inline void time_op(Timing& t, const DecodedOp& d, const ExecInfo& ex,
                    const ExecImage& im, i32 lanes,
                    [[maybe_unused]] obs::TraceSink* trace) {
  const Cycle issue = t.issue;
  Cycle dst_full = issue + d.latency;
  Cycle dst_chain = dst_full;
  Cycle occ = 1;
  [[maybe_unused]] u8 mem_level = 0;

  if (ex.is_mem) {
    const MemResult mr =
        ex.mem_vector
            ? t.memsys->vector_access(ex.mem_addr, ex.mem_stride, ex.mem_vl,
                                      ex.mem_store, issue)
            : t.memsys->scalar_access(ex.mem_addr, 8, ex.mem_store, issue);
    dst_full = mr.ready;
    dst_chain = mr.chain_ready;
    occ = mr.port_busy;
    mem_level = mr.level;
  } else if (d.is_vector) {
    // Vector compute: LN sub-operations per cycle.
    dst_full = issue + d.latency + (ex.vl - 1) / lanes;
    dst_chain = issue + d.latency;
    occ = ceil_div(ex.vl, lanes);
  }

  [[maybe_unused]] i32 fu_inst = 0;
  if (d.fu != 0) fu_inst = t.fus.take(d.fu, issue, occ);

  if constexpr (!kGroup) {
    if (trace) {
      trace->on_op(d.fu, fu_inst, op_name(d.op), issue, occ, dst_full);
      if (ex.is_mem)
        trace->on_mem(ex.mem_vector, ex.mem_store, ex.mem_addr, mem_level,
                      issue, dst_full);
    }
  }

  if (d.wb_full != kNoSlot) {
    t.board[d.wb_full] = dst_full;
    t.mem_delayed[d.wb_full] = ex.is_mem && dst_full > issue + d.latency;
    if (d.wb_chain != kNoSlot) {
      t.board[d.wb_chain] = dst_chain;
      t.mem_delayed[d.wb_chain] = ex.is_mem && dst_chain > issue + d.latency;
    }
  }
  if (d.sets_vl) {
    t.board[im.slot_vl] = issue + 1;
    t.mem_delayed[im.slot_vl] = 0;
  }
  if (d.sets_vs) {
    t.board[im.slot_vs] = issue + 1;
    t.mem_delayed[im.slot_vs] = 0;
  }
}

/// The replay loop: one functional walk of `im` timed by `n` states.
/// kGroup = false is the one-configuration run (n is 1; a trace sink and a
/// stall profile may be attached; a budget overrun throws). kGroup = true
/// times n >= 2 states op-major: each op executes once, then every state
/// times it. A state whose issue time reaches `max_cycles` records its
/// SimError and leaves `act`; the walk ends early once none is left. The
/// first n entries of `act` are the running states, in any order. Every
/// finished state's result is complete on return.
template <bool kGroup>
void replay(const ExecImage& im, const MachineConfig& cfg, MainMemory& mem,
            Timing** act, i32 n, Cycle max_cycles,
            [[maybe_unused]] obs::TraceSink* trace,
            [[maybe_unused]] StallProfile* profile) {
  if constexpr (!kGroup) n = 1;

  // Register-file sizes are part of the schedule signature: every state
  // of a group agrees on them.
  CpuState st;
  st.iregs.assign(static_cast<size_t>(cfg.int_regs), 0);
  st.sregs.assign(static_cast<size_t>(std::max(cfg.simd_regs, 1)), 0);
  st.vregs.assign(static_cast<size_t>(std::max(cfg.vec_regs, 1)), VecValue{});
  st.aregs.assign(static_cast<size_t>(std::max(cfg.acc_regs, 1)), AccValue{});

  if constexpr (!kGroup)
    if (profile) profile->by_op.assign(im.ops.size(), {});

  // The walk's dynamic op, µop and word counts: a single state counts into
  // its own regions, a group into `counts`, copied to every state at HALT.
  std::vector<RegionStats> counts;
  if constexpr (kGroup) counts.resize(act[0]->res.regions.size());

  i32 block = im.entry;
  bool halted = false;

  // Hoisted writeback buffer: one slot per op of the widest word, reused
  // every cycle (execute_decoded redefines all observable fields).
  std::vector<WriteBack> wbs(static_cast<size_t>(std::max(im.max_word_ops, 1)));

  while (!halted) {
    const DecodedBlock& blk = im.blocks[static_cast<size_t>(block)];
    for (i32 s = 0; s < n; ++s) act[s]->reg = &act[s]->res.regions[blk.region];
    RegionStats& creg = kGroup ? counts[blk.region] : *act[0]->reg;

    i32 next_block = blk.fallthrough;
    bool taken = false;
    Cycle prev_sched = -1;

    for (u32 wi = blk.word_begin; wi != blk.word_end; ++wi) {
      const DecodedWord& w = im.words[wi];

      // ---- pass A: issue-time constraints, per state ----------------------
      for (i32 s = 0; s < n; ++s) {
        Timing& t = *act[s];
        // Lockstep base time: preserve the static spacing between words.
        const Cycle base = (prev_sched < 0)
                               ? t.now + w.cycle
                               : t.issue + (w.cycle - prev_sched);
        Cycle issue = base;

        // Track which constraint *bound* the issue time: the first one to
        // reach the final maximum (strict >, so ties keep the earlier
        // winner — deterministic, and `issue` is exactly the old max()).
        Slot bind_slot = kNoSlot; // scoreboard slot that bound, if any
        u32 bind_op = w.op_begin; // op whose source bound (the stalled consumer)
        u8 bind_fu = 0;           // FuClass that bound (0 = a slot bound)
        // Only the first n_check slots can bind (see lower_image): each of
        // the rest is ready by `base` in every execution of the block.
        for (u32 oi = w.op_begin; oi != w.op_end; ++oi) {
          const DecodedOp& d = im.ops[oi];
          for (u8 c = 0; c < d.n_check; ++c) {
            const Cycle r = t.board[d.ready[c]];
            if (r > issue) {
              issue = r;
              bind_slot = d.ready[c];
              bind_op = oi;
            }
          }
        }
        for (u8 f = 0; f < w.n_fu; ++f) {
          const u8 cls = w.fu_need[f].first;
          if (t.fus.latest(cls) <= issue) continue;  // free_at <= latest <= issue
          const Cycle r = t.fus.free_at(cls, w.fu_need[f].second);
          if (r > issue) {
            issue = r;
            bind_fu = cls;
          }
        }

        const Cycle stall = issue - base;
        t.res.stall_cycles += stall;
        if (stall > 0) {
          StallCause cause;
          [[maybe_unused]] u32 victim = bind_op;
          if (bind_fu != 0) {
            cause = StallCause::kFuConflict;
            // Charge the word's first op contending for the bound FU class.
            for (u32 oi = w.op_begin; oi != w.op_end; ++oi)
              if (im.ops[oi].fu == bind_fu) {
                victim = oi;
                break;
              }
          } else {
            cause = t.mem_delayed[bind_slot] ? StallCause::kMemLatency
                                             : StallCause::kRaw;
          }
          t.reg->stalls.add(cause, stall);
          if constexpr (!kGroup) {
            if (profile) profile->record(victim, cause, stall);
            if (trace) trace->on_stall(base, stall, cause);
          }
        }
        if (issue >= max_cycles) {
          if constexpr (!kGroup) {
            throw SimError("simulation exceeded cycle budget");
          } else {
            // This state fails alone; the walk goes on for the others.
            t.error = std::make_exception_ptr(
                SimError("simulation exceeded cycle budget"));
            act[s--] = act[--n];
            continue;
          }
        }
        t.issue = issue;
      }
      if constexpr (kGroup) {
        if (n == 0) return;
      } else {
        if (trace)
          trace->on_word(act[0]->issue, block, blk.region,
                         w.op_end - w.op_begin);
      }

      // ---- pass B: execute once, then every state times the op -----------
      const u32 nops = w.op_end - w.op_begin;
      for (u32 k = 0; k < nops; ++k) {
        const DecodedOp& d = im.ops[w.op_begin + k];
        const ExecInfo ex = execute_decoded(d, st, mem, wbs[k]);
        for (i32 s = 0; s < n; ++s)
          time_op<kGroup>(*act[s], d, ex, im, cfg.lanes, trace);

        if (ex.branch_taken) {
          taken = true;
          next_block = d.target_block;
        }
        if (ex.halted) halted = true;

        creg.ops += 1;
        creg.uops += d.uop_fixed + static_cast<i64>(d.uop_per_vl) * ex.vl;
      }
      for (u32 k = 0; k < nops; ++k) apply_writeback(wbs[k], st);

      creg.words += 1;
      prev_sched = w.cycle;
    }

    // Taken control transfers pay a one-cycle fetch bubble. Bubbles are
    // part of the static control-flow cost, not of stall_cycles.
    for (i32 s = 0; s < n; ++s) {
      Timing& t = *act[s];
      const Cycle exit_time = prev_sched < 0 ? t.now : t.issue + 1;
      const Cycle next_time = exit_time + (taken ? 1 : 0);
      if (taken) {
        ++t.res.taken_branches;
        ++t.res.branch_bubbles;
        if constexpr (!kGroup)
          if (trace) trace->on_branch_bubble(exit_time);
      }
      t.reg->cycles += next_time - t.now;
      t.now = halted ? exit_time : next_time;
    }

    if (halted) break;
    VUV_CHECK(next_block >= 0, "control fell off the program");
    block = next_block;
  }

  for (i32 s = 0; s < n; ++s) {
    SimResult& res = act[s]->res;
    res.cycles = act[s]->now;
    res.mem = act[s]->memsys->stats();
    if constexpr (kGroup) {
      for (size_t r = 0; r < counts.size(); ++r) {
        res.regions[r].ops = counts[r].ops;
        res.regions[r].uops = counts[r].uops;
        res.regions[r].words = counts[r].words;
      }
    }
    for (const RegionStats& r : res.regions) res.stalls += r.stalls;
  }
}

}  // namespace

Cpu::Cpu(const MachineConfig& cfg, MainMemory& mem, const ExecImage& image)
    : Cpu(std::span<const MachineConfig>(&cfg, 1), mem, image) {}

Cpu::Cpu(std::span<const MachineConfig> cfgs, MainMemory& mem,
         const ExecImage& image)
    : cfgs_(cfgs), mem_(mem), image_(image) {
  VUV_CHECK(!cfgs.empty(), "a replay needs at least one configuration");
  for (const MachineConfig& cfg : cfgs)
    VUV_CHECK(schedule_signature(cfg) == image.signature,
              "simulation config is incompatible with the compiled program");
}

SimResult Cpu::run(Cycle max_cycles) {
  VUV_CHECK(cfgs_.size() == 1,
            "run() replays one configuration; a group runs with run_group()");
  const MachineConfig& cfg = cfgs_[0];
  MemorySystem memsys(cfg);
  for (const auto& [start, bytes] : warm_) memsys.warm(start, bytes);
  Timing t(cfg, image_, memsys);
  Timing* one = &t;
  replay<false>(image_, cfg, mem_, &one, 1, max_cycles, trace_, profile_);
  return std::move(t.res);
}

std::vector<SimOutcome> Cpu::run_group(Cycle max_cycles) {
  std::vector<SimOutcome> out(cfgs_.size());
  if (cfgs_.size() == 1) {
    try {
      out[0].sim = run(max_cycles);
    } catch (...) {
      out[0].error = std::current_exception();
    }
    return out;
  }
  VUV_CHECK(!trace_ && !profile_,
            "trace sinks and stall profiles attach to one configuration");

  std::vector<MemorySystem> memsys;
  std::vector<Timing> states;
  std::vector<Timing*> act;
  memsys.reserve(cfgs_.size());
  states.reserve(cfgs_.size());
  for (const MachineConfig& cfg : cfgs_) {
    MemorySystem& ms = memsys.emplace_back(cfg);
    for (const auto& [start, bytes] : warm_) ms.warm(start, bytes);
    act.push_back(&states.emplace_back(cfg, image_, ms));
  }
  try {
    replay<true>(image_, cfgs_[0], mem_, act.data(),
                 static_cast<i32>(act.size()), max_cycles, nullptr, nullptr);
  } catch (...) {
    // A functional error: it fails every state still running, exactly as
    // it fails each of their own runs.
    for (Timing& t : states)
      if (!t.error) t.error = std::current_exception();
  }
  for (size_t i = 0; i < states.size(); ++i) {
    if (states[i].error)
      out[i].error = states[i].error;
    else
      out[i].sim = std::move(states[i].res);
  }
  return out;
}

SimResult run_program(Program prog, const MachineConfig& cfg, Workspace& ws) {
  const ScheduledProgram sp = compile(std::move(prog), cfg);
  const ExecImage image = lower_image(sp, sp.cfg);
  Cpu cpu(sp.cfg, ws.mem(), image);
  cpu.warm(0, ws.used());
  return cpu.run();
}

}  // namespace vuv
