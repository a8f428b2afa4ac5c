#include "sched/regalloc.hpp"

#include <algorithm>
#include <deque>
#include <limits>
#include <string>
#include <vector>

#include "common/error.hpp"

namespace vuv {

namespace {

/// Registers read by an operation (architectural srcs only; special
/// registers are not allocated).
template <typename F>
void for_each_use(const Operation& op, F&& f) {
  const OpInfo& info = op.info();
  for (u8 i = 0; i < info.nsrc; ++i)
    if (op.src[i].valid() && op.src[i].cls != RegClass::kSpecial) f(op.src[i]);
}

static_assert(sizeof(PlannedInterval) == 12,
              "resident plans hold one 12-byte record per live register");

/// Flat virtual-register indexing: one dense id space over all allocatable
/// classes, in (class, id) order — the same order the former
/// map<pair<class,id>> iterated in, which the tie-breaking of the interval
/// sort below relies on.
struct VregSpace {
  std::array<i32, 6> off{};
  i32 total = 0;

  explicit VregSpace(const Program& prog) {
    for (int c = 0; c < 6; ++c) {
      off[static_cast<size_t>(c)] = total;
      if (static_cast<RegClass>(c) != RegClass::kNone &&
          static_cast<RegClass>(c) != RegClass::kSpecial)
        total += prog.reg_count[static_cast<size_t>(c)];
    }
  }

  i32 index(const Reg& r) const {
    return off[static_cast<size_t>(r.cls)] + r.id;
  }

  /// Inverse of index() for the class: the last allocatable class whose
  /// range starts at or below `f` (empty classes start where the next one
  /// does, so they are passed over).
  RegClass class_of(i32 f) const {
    for (int c = static_cast<int>(RegClass::kAcc);
         c > static_cast<int>(RegClass::kInt); --c)
      if (f >= off[static_cast<size_t>(c)]) return static_cast<RegClass>(c);
    return RegClass::kInt;
  }
};

/// Fixed-width bitset over the virtual-register space (liveness sets).
class RegBits {
 public:
  void resize_for(i32 bits) {
    w_.assign(static_cast<size_t>((bits + 63) / 64), 0);
  }
  void set(i32 i) { w_[static_cast<size_t>(i >> 6)] |= 1ULL << (i & 63); }
  bool test(i32 i) const {
    return (w_[static_cast<size_t>(i >> 6)] >> (i & 63)) & 1;
  }
  void or_with(const RegBits& o) {
    for (size_t k = 0; k < w_.size(); ++k) w_[k] |= o.w_[k];
  }
  /// this = a | (b & ~mask)
  void assign_union_minus(const RegBits& a, const RegBits& b,
                          const RegBits& mask) {
    for (size_t k = 0; k < w_.size(); ++k)
      w_[k] = a.w_[k] | (b.w_[k] & ~mask.w_[k]);
  }
  bool operator==(const RegBits& o) const { return w_ == o.w_; }

  template <typename F>
  void for_each(F&& f) const {
    for (size_t k = 0; k < w_.size(); ++k) {
      u64 w = w_[k];
      while (w) {
        const int b = __builtin_ctzll(w);
        f(static_cast<i32>(k * 64 + static_cast<size_t>(b)));
        w &= w - 1;
      }
    }
  }

 private:
  std::vector<u64> w_;
};

}  // namespace

i64 RegPlan::bytes() const {
  return static_cast<i64>(sizeof(RegPlan) +
                          intervals.capacity() * sizeof(PlannedInterval));
}

RegPlan plan_registers(const Program& prog) {
  VUV_CHECK(!prog.allocated, "program already register-allocated");

  const VregSpace vr(prog);
  RegPlan plan;
  plan.reg_count = prog.reg_count;
  plan.ops = prog.static_ops();
  if (plan.ops > std::numeric_limits<i32>::max())
    throw CompileError("program has " + std::to_string(plan.ops) +
                       " ops; register planning holds op positions in 32 bits");

  // ---- linearize ------------------------------------------------------------
  const i32 nblocks = static_cast<i32>(prog.blocks.size());
  std::vector<i32> block_start(nblocks), block_end(nblocks);
  i32 pos = 0;
  for (i32 b = 0; b < nblocks; ++b) {
    block_start[b] = pos;
    pos += static_cast<i32>(prog.blocks[b].ops.size());
    block_end[b] = pos;  // exclusive
  }

  // ---- liveness (backward dataflow over the CFG) ---------------------------
  // Only registers that are upward-exposed in some block (read before any
  // local definition) can ever be live across an edge: dataflow bits can
  // only originate in a use set. Everything else is block-local and needs
  // no dataflow at all, so the bitsets below run over the (much smaller)
  // compacted space of cross-block candidates rather than the full virtual
  // register space.
  std::vector<i32> dense_id(static_cast<size_t>(vr.total), -1);
  std::vector<i32> dense_vreg;  // dense id -> flat virtual register
  std::vector<std::vector<i32>> use_list(nblocks), def_list(nblocks);
  {
    std::vector<i32> def_epoch(static_cast<size_t>(vr.total), -1);
    std::vector<i32> use_epoch(static_cast<size_t>(vr.total), -1);
    for (i32 b = 0; b < nblocks; ++b) {
      for (const Operation& op : prog.blocks[b].ops) {
        for_each_use(op, [&](const Reg& r) {
          const i32 f = vr.index(r);
          if (def_epoch[static_cast<size_t>(f)] == b) return;
          if (use_epoch[static_cast<size_t>(f)] == b) return;
          use_epoch[static_cast<size_t>(f)] = b;
          use_list[b].push_back(f);
          if (dense_id[static_cast<size_t>(f)] < 0) {
            dense_id[static_cast<size_t>(f)] = static_cast<i32>(dense_vreg.size());
            dense_vreg.push_back(f);
          }
        });
        if (op.dst.valid() && op.dst.cls != RegClass::kSpecial) {
          const i32 f = vr.index(op.dst);
          if (def_epoch[static_cast<size_t>(f)] != b) {
            def_epoch[static_cast<size_t>(f)] = b;
            def_list[b].push_back(f);
          }
        }
      }
    }
  }
  const i32 ndense = static_cast<i32>(dense_vreg.size());

  std::vector<RegBits> use(nblocks), def(nblocks), live_in(nblocks),
      live_out(nblocks);
  for (i32 b = 0; b < nblocks; ++b) {
    use[b].resize_for(ndense);
    def[b].resize_for(ndense);
    live_in[b].resize_for(ndense);
    live_out[b].resize_for(ndense);
    for (const i32 f : use_list[b]) use[b].set(dense_id[static_cast<size_t>(f)]);
    for (const i32 f : def_list[b])
      if (const i32 d = dense_id[static_cast<size_t>(f)]; d >= 0) def[b].set(d);
  }

  std::vector<std::vector<i32>> successors(nblocks);
  for (i32 b = 0; b < nblocks; ++b) {
    const BasicBlock& blk = prog.blocks[b];
    if (blk.fallthrough >= 0) successors[b].push_back(blk.fallthrough);
    if (const Operation* t = blk.terminator();
        t && (t->info().flags.branch || t->info().flags.jump))
      successors[b].push_back(t->target_block);
  }

  std::vector<std::vector<i32>> predecessors(nblocks);
  for (i32 b = 0; b < nblocks; ++b)
    for (i32 s : successors[b]) predecessors[s].push_back(b);

  // Worklist form of the backward sweep: a block is only re-evaluated when
  // some successor's live-in grew. The fixpoint is unique, so this computes
  // exactly the sets the repeated full sweeps did. Blocks marked during a
  // pass at a position not yet visited (p < b, forward edges) are picked up
  // in the same pass; back edges force another one.
  std::vector<u8> pending(static_cast<size_t>(nblocks), 1);
  RegBits out, in;
  out.resize_for(ndense);
  in.resize_for(ndense);
  bool again = true;
  while (again) {
    again = false;
    for (i32 b = nblocks - 1; b >= 0; --b) {
      if (!pending[static_cast<size_t>(b)]) continue;
      pending[static_cast<size_t>(b)] = 0;
      out.resize_for(ndense);  // zero
      for (i32 s : successors[b]) out.or_with(live_in[s]);
      in.assign_union_minus(use[b], out, def[b]);
      const bool in_changed = !(in == live_in[b]);
      if (!(out == live_out[b]) || in_changed) {
        std::swap(live_out[b], out);
        std::swap(live_in[b], in);
        if (in_changed)
          for (i32 p : predecessors[b])
            if (!pending[static_cast<size_t>(p)]) {
              pending[static_cast<size_t>(p)] = 1;
              if (p >= b) again = true;
            }
      }
    }
  }

  // ---- intervals -------------------------------------------------------------
  // Indexed by flat virtual register; start == -1 marks "no interval yet".
  std::vector<PlannedInterval> interval(static_cast<size_t>(vr.total),
                                        PlannedInterval{-1, -1, -1});
  auto extend = [&](i32 f, i32 at) {
    PlannedInterval& iv = interval[static_cast<size_t>(f)];
    if (iv.start < 0) {
      iv = PlannedInterval{f, at, at};
    } else {
      iv.start = std::min(iv.start, at);
      iv.end = std::max(iv.end, at);
    }
  };
  for (i32 b = 0; b < nblocks; ++b) {
    live_in[b].for_each(
        [&](i32 d) { extend(dense_vreg[static_cast<size_t>(d)], block_start[b]); });
    live_out[b].for_each(
        [&](i32 d) { extend(dense_vreg[static_cast<size_t>(d)], block_end[b]); });
    i32 p = block_start[b];
    for (const Operation& op : prog.blocks[b].ops) {
      for_each_use(op, [&](const Reg& r) { extend(vr.index(r), p); });
      if (op.dst.valid() && op.dst.cls != RegClass::kSpecial)
        extend(vr.index(op.dst), p);
      ++p;
    }
  }

  // ---- scan order --------------------------------------------------------------
  // Collect in flat-index order — (class, id) ascending — so the unstable
  // sort below sees the same input permutation the map-based implementation
  // produced and assigns identical physical registers.
  size_t live = 0;
  for (const PlannedInterval& iv : interval) live += iv.start >= 0 ? 1 : 0;
  plan.intervals.reserve(live);
  for (const PlannedInterval& iv : interval)
    if (iv.start >= 0) plan.intervals.push_back(iv);
  std::sort(plan.intervals.begin(), plan.intervals.end(),
            [](const PlannedInterval& a, const PlannedInterval& b) {
              return a.start < b.start || (a.start == b.start && a.end < b.end);
            });
  return plan;
}

RegAllocStats allocate_registers(Program& prog, const MachineConfig& cfg,
                                 const RegPlan& plan) {
  VUV_CHECK(!prog.allocated, "program already register-allocated");
  VUV_CHECK(plan.reg_count == prog.reg_count && plan.ops == prog.static_ops(),
            "register plan was made for a different program");

  const VregSpace vr(prog);

  // ---- linear scan per class -------------------------------------------------
  auto file_size = [&](RegClass cls) -> i32 {
    switch (cls) {
      case RegClass::kInt: return cfg.int_regs;
      case RegClass::kSimd: return cfg.simd_regs;
      case RegClass::kVreg: return cfg.vec_regs;
      case RegClass::kAcc: return cfg.acc_regs;
      default: return 0;
    }
  };

  RegAllocStats stats;
  std::vector<i32> phys(static_cast<size_t>(vr.total), -1);
  // Per class: free list and active set ordered by end position. The free
  // list is a FIFO so physical registers are reused round-robin: reusing the
  // most-recently-freed register (LIFO) would create dense false WAR/WAW
  // dependencies that serialize wide-issue schedules — the large register
  // files of Table 2 exist precisely to avoid that.
  //
  // The active set is a binary min-heap on (end, insertion seq) — the seq
  // tie-break reproduces the insertion-order iteration of the multimap it
  // replaced (equal end positions expire FIFO), so the free-list order and
  // therefore every physical assignment is unchanged; the heap just drops
  // the per-node allocations, which dominated the scan on large programs.
  struct ActiveReg {
    i64 end;
    i64 seq;
    i32 phys;
    bool operator>(const ActiveReg& o) const {
      return end > o.end || (end == o.end && seq > o.seq);
    }
  };
  std::array<std::deque<i32>, 6> free_regs;
  std::array<std::vector<ActiveReg>, 6> active;  // min-heaps
  const auto heap_cmp = [](const ActiveReg& a, const ActiveReg& b) {
    return a > b;  // std::*_heap are max-heaps; invert for a min-heap
  };
  i64 seq = 0;

  for (int c = 0; c < 6; ++c) {
    const i32 n = file_size(static_cast<RegClass>(c));
    for (i32 i = 0; i < n; ++i) free_regs[c].push_back(i);
  }

  for (const PlannedInterval& iv : plan.intervals) {
    const RegClass cls = vr.class_of(iv.vreg);
    const int c = static_cast<int>(cls);
    // Expire intervals that ended strictly before this start.
    auto& act = active[c];
    while (!act.empty() && act.front().end < iv.start) {
      free_regs[c].push_back(act.front().phys);
      std::pop_heap(act.begin(), act.end(), heap_cmp);
      act.pop_back();
    }
    if (free_regs[c].empty()) {
      throw CompileError(
          "register pressure exceeds " + std::string(reg_class_name(cls)) +
          " file size (" + std::to_string(file_size(cls)) + ") on " + cfg.name);
    }
    const i32 p = free_regs[c].front();
    free_regs[c].pop_front();
    act.push_back(ActiveReg{iv.end, seq++, p});
    std::push_heap(act.begin(), act.end(), heap_cmp);
    phys[static_cast<size_t>(iv.vreg)] = p;
    stats.peak[c] = std::max(stats.peak[c], static_cast<i32>(act.size()));
  }

  // ---- rewrite -----------------------------------------------------------------
  auto remap = [&](Reg& r) {
    if (!r.valid() || r.cls == RegClass::kSpecial) return;
    const i32 p = phys[static_cast<size_t>(vr.index(r))];
    VUV_CHECK(p >= 0, "register without interval");
    r.id = p;
  };
  for (BasicBlock& blk : prog.blocks) {
    for (Operation& op : blk.ops) {
      remap(op.dst);
      for (auto& s : op.src) remap(s);
    }
  }
  for (int c = 0; c < 6; ++c)
    prog.reg_count[c] = file_size(static_cast<RegClass>(c));
  prog.allocated = true;
  return stats;
}

RegAllocStats allocate_registers(Program& prog, const MachineConfig& cfg) {
  return allocate_registers(prog, cfg, plan_registers(prog));
}

}  // namespace vuv
