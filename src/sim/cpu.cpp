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
/// once per used FU class per simulated VLIW word.
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

  /// Occupy the first free instance; returns its index (for tracing).
  i32 take(u8 f, Cycle t, Cycle occ) {
    Slots& s = cls_[f];
    for (i32 i = 0; i < s.n; ++i)
      if (s.busy[static_cast<size_t>(i)] <= t) {
        s.busy[static_cast<size_t>(i)] = t + std::max<Cycle>(occ, 1);
        return i;
      }
    throw InternalError("pool take with no free instance");
  }

 private:
  struct Slots {
    std::array<Cycle, kMaxPerClass> busy{};
    i32 n = 0;
  };

  void init(FuClass f, i32 count) {
    VUV_CHECK(count <= kMaxPerClass,
              "functional-unit class exceeds the tracker capacity");
    cls_[static_cast<size_t>(f)].n = std::max(count, 0);
  }

  std::array<Slots, 7> cls_;
};

}  // namespace

Cpu::Cpu(const MachineConfig& cfg, MainMemory& mem, const ExecImage& image)
    : cfg_(cfg), mem_(mem), image_(image) {
  VUV_CHECK(schedule_signature(cfg) == image.signature,
            "simulation config is incompatible with the compiled program");
}

SimResult Cpu::run(Cycle max_cycles) {
  const MachineConfig& cfg = cfg_;
  const ExecImage& im = image_;

  CpuState st;
  st.iregs.assign(static_cast<size_t>(cfg.int_regs), 0);
  st.sregs.assign(static_cast<size_t>(std::max(cfg.simd_regs, 1)), 0);
  st.vregs.assign(static_cast<size_t>(std::max(cfg.vec_regs, 1)), VecValue{});
  st.aregs.assign(static_cast<size_t>(std::max(cfg.acc_regs, 1)), AccValue{});

  // Flat scoreboard: per-register ready times for every register file, the
  // vector-register chain points, and the VL/VS special registers, all in
  // one array indexed by the slots the image predecoded (see sim/image.hpp).
  std::vector<Cycle> board(im.n_slots, 0);

  // Stall attribution state, parallel to the scoreboard: whether the last
  // writer of a slot was a memory operation that completed later than the
  // compiler's hit-latency assumption. A dependency stall on such a slot is
  // charged to memory; on any other slot it is a scheduling-visibility RAW.
  std::vector<u8> mem_delayed(im.n_slots, 0);

  if (profile_) profile_->by_op.assign(im.ops.size(), {});

  FuTracker fus(cfg);

  MemorySystem memsys(cfg);
  for (const auto& [start, bytes] : warm_) memsys.warm(start, bytes);

  SimResult res;
  res.config_name = cfg.name;
  res.regions.resize(std::max<size_t>(im.region_names.size(), 1));
  for (size_t i = 0; i < im.region_names.size(); ++i)
    res.regions[i].name = im.region_names[i];

  i32 block = im.entry;
  Cycle now = 0;
  bool halted = false;

  // Hoisted writeback buffer: one slot per op of the widest word, reused
  // every cycle (execute_decoded redefines all observable fields).
  std::vector<WriteBack> wbs(static_cast<size_t>(std::max(im.max_word_ops, 1)));

  while (!halted) {
    const DecodedBlock& blk = im.blocks[static_cast<size_t>(block)];
    RegionStats& reg = res.regions[blk.region];
    const Cycle block_entry = now;

    i32 next_block = blk.fallthrough;
    bool taken = false;
    Cycle prev_sched = -1, prev_issue = -1;
    Cycle exit_time = block_entry;

    for (u32 wi = blk.word_begin; wi != blk.word_end; ++wi) {
      const DecodedWord& w = im.words[wi];
      // Lockstep base time: preserve the static spacing between words.
      Cycle base = (prev_sched < 0) ? block_entry + w.cycle
                                    : prev_issue + (w.cycle - prev_sched);
      Cycle issue = base;

      // ---- pass A: issue-time constraints -------------------------------
      // Track which constraint *bound* the issue time: the first one to
      // reach the final maximum (strict >, so ties keep the earlier
      // winner — deterministic, and `issue` is exactly the old max()).
      Slot bind_slot = kNoSlot; // scoreboard slot that bound, if any
      u32 bind_op = w.op_begin; // op whose source bound (the stalled consumer)
      u8 bind_fu = 0;           // FuClass that bound (0 = a slot bound)
      for (u32 oi = w.op_begin; oi != w.op_end; ++oi) {
        const DecodedOp& d = im.ops[oi];
        for (u8 s = 0; s < d.n_ready; ++s) {
          const Cycle t = board[d.ready[s]];
          if (t > issue) {
            issue = t;
            bind_slot = d.ready[s];
            bind_op = oi;
          }
        }
      }
      for (u8 f = 0; f < w.n_fu; ++f) {
        const Cycle t = fus.free_at(w.fu_need[f].first, w.fu_need[f].second);
        if (t > issue) {
          issue = t;
          bind_fu = w.fu_need[f].first;
        }
      }

      const Cycle stall = issue - base;
      res.stall_cycles += stall;
      if (stall > 0) {
        StallCause cause;
        u32 victim = bind_op;
        if (bind_fu != 0) {
          cause = StallCause::kFuConflict;
          // Charge the word's first op contending for the bound FU class.
          for (u32 oi = w.op_begin; oi != w.op_end; ++oi)
            if (im.ops[oi].fu == bind_fu) {
              victim = oi;
              break;
            }
        } else {
          cause = mem_delayed[bind_slot] ? StallCause::kMemLatency
                                         : StallCause::kRaw;
        }
        reg.stalls.add(cause, stall);
        if (profile_) profile_->record(victim, cause, stall);
        if (trace_) trace_->on_stall(base, stall, cause);
      }
      if (issue >= max_cycles) throw SimError("simulation exceeded cycle budget");
      if (trace_) trace_->on_word(issue, block, blk.region, w.op_end - w.op_begin);

      // ---- pass B: execute, take resources, set ready times ---------------
      const u32 nops = w.op_end - w.op_begin;
      for (u32 k = 0; k < nops; ++k) {
        const DecodedOp& d = im.ops[w.op_begin + k];
        WriteBack& wb = wbs[k];
        const ExecInfo ex = execute_decoded(d, st, mem_, wb);

        Cycle dst_full = issue + d.latency;
        Cycle dst_chain = dst_full;
        Cycle occ = 1;
        u8 mem_level = 0;

        if (ex.is_mem) {
          const MemResult mr =
              ex.mem_vector
                  ? memsys.vector_access(ex.mem_addr, ex.mem_stride, ex.mem_vl,
                                         ex.mem_store, issue)
                  : memsys.scalar_access(ex.mem_addr, 8, ex.mem_store, issue);
          dst_full = mr.ready;
          dst_chain = mr.chain_ready;
          occ = mr.port_busy;
          mem_level = mr.level;
        } else if (d.is_vector) {
          // Vector compute: LN sub-operations per cycle.
          dst_full = issue + d.latency + (ex.vl - 1) / cfg.lanes;
          dst_chain = issue + d.latency;
          occ = ceil_div(ex.vl, cfg.lanes);
        }

        i32 fu_inst = 0;
        if (d.fu != 0) fu_inst = fus.take(d.fu, issue, occ);

        if (trace_) {
          trace_->on_op(d.fu, fu_inst, op_name(d.op), issue, occ, dst_full);
          if (ex.is_mem)
            trace_->on_mem(ex.mem_vector, ex.mem_store, ex.mem_addr, mem_level,
                           issue, dst_full);
        }

        if (d.wb_full != kNoSlot) {
          board[d.wb_full] = dst_full;
          mem_delayed[d.wb_full] = ex.is_mem && dst_full > issue + d.latency;
          if (d.wb_chain != kNoSlot) {
            board[d.wb_chain] = dst_chain;
            mem_delayed[d.wb_chain] =
                ex.is_mem && dst_chain > issue + d.latency;
          }
        }
        if (d.sets_vl) {
          board[im.slot_vl] = issue + 1;
          mem_delayed[im.slot_vl] = 0;
        }
        if (d.sets_vs) {
          board[im.slot_vs] = issue + 1;
          mem_delayed[im.slot_vs] = 0;
        }

        if (ex.branch_taken) {
          taken = true;
          next_block = d.target_block;
        }
        if (ex.halted) halted = true;

        reg.ops += 1;
        reg.uops += d.uop_fixed + static_cast<i64>(d.uop_per_vl) * ex.vl;
      }
      for (u32 k = 0; k < nops; ++k) apply_writeback(wbs[k], st);

      reg.words += 1;
      prev_sched = w.cycle;
      prev_issue = issue;
      exit_time = issue + 1;
    }

    // Taken control transfers pay a one-cycle fetch bubble. Bubbles are
    // part of the static control-flow cost, not of stall_cycles.
    Cycle next_time = exit_time + (taken ? 1 : 0);
    if (taken) {
      ++res.taken_branches;
      ++res.branch_bubbles;
      if (trace_) trace_->on_branch_bubble(exit_time);
    }
    reg.cycles += next_time - block_entry;

    if (halted) {
      now = exit_time;
      break;
    }
    VUV_CHECK(next_block >= 0, "control fell off the program");
    block = next_block;
    now = next_time;
  }

  res.cycles = now;
  res.mem = memsys.stats();
  for (const RegionStats& r : res.regions) res.stalls += r.stalls;
  return res;
}

SimResult run_program(Program prog, const MachineConfig& cfg, MainMemory& mem) {
  const ScheduledProgram sp = compile(std::move(prog), cfg);
  const ExecImage image = lower_image(sp, sp.cfg);
  Cpu cpu(sp.cfg, mem, image);
  return cpu.run();
}

SimResult run_program(Program prog, const MachineConfig& cfg, Workspace& ws) {
  const ScheduledProgram sp = compile(std::move(prog), cfg);
  const ExecImage image = lower_image(sp, sp.cfg);
  Cpu cpu(sp.cfg, ws.mem(), image);
  cpu.warm(0, ws.used());
  return cpu.run();
}

}  // namespace vuv
