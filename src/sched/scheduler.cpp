#include <algorithm>
#include <vector>

#include "common/error.hpp"
#include "sched/regalloc.hpp"
#include "sched/schedule.hpp"
#include "verify/irlint.hpp"
#include "verify/schedcheck.hpp"

namespace vuv {

namespace {

constexpr i32 kUnknownVl = -1;

/// Forward dataflow of the vector-length register: the compiler needs VL to
/// compute vector latency descriptors (§3.3). "The vector length register is
/// usually initialized with an immediate value, and a simple data flow
/// analysis is able to provide the right value... In the few cases in which
/// the vector length is not known at compile time, the compiler must assume
/// the maximum vector length (16)."
struct VlAnalysis {
  std::vector<i32> entry_vl;  // per block; kUnknownVl = unknown
  std::vector<i32> entry_vs;  // per block, stride in bytes; kUnknownVl = unknown

  static VlAnalysis run(const Program& prog) {
    const i32 n = static_cast<i32>(prog.blocks.size());
    VlAnalysis a;
    // Start as "uninitialized" (use a sentinel distinct from unknown).
    constexpr i32 kTop = -2;
    a.entry_vl.assign(n, kTop);
    a.entry_vs.assign(n, kTop);
    a.entry_vl[prog.entry] = kUnknownVl;
    a.entry_vs[prog.entry] = kUnknownVl;

    // Per-block transfer summaries and successor edges, computed once: a
    // block's effect on VL/VS is fully described by its last setvl/setvs
    // (kPass = no such op), so the fixpoint sweeps need not rescan ops.
    constexpr i32 kPass = -3;
    std::vector<i32> xfer_vl(static_cast<size_t>(n), kPass);
    std::vector<i32> xfer_vs(static_cast<size_t>(n), kPass);
    std::vector<std::array<i32, 2>> succs(static_cast<size_t>(n),
                                          {{-1, -1}});
    for (i32 b = 0; b < n; ++b) {
      const BasicBlock& blk = prog.blocks[b];
      for (const Operation& op : blk.ops) {
        if (op.op == Opcode::SETVLI)
          xfer_vl[static_cast<size_t>(b)] = static_cast<i32>(op.imm);
        if (op.op == Opcode::SETVL)
          xfer_vl[static_cast<size_t>(b)] = kUnknownVl;
        if (op.op == Opcode::SETVSI)
          xfer_vs[static_cast<size_t>(b)] = static_cast<i32>(op.imm);
        if (op.op == Opcode::SETVS)
          xfer_vs[static_cast<size_t>(b)] = kUnknownVl;
      }
      int ns = 0;
      if (blk.fallthrough >= 0)
        succs[static_cast<size_t>(b)][static_cast<size_t>(ns++)] =
            blk.fallthrough;
      if (const Operation* t = blk.terminator();
          t && (t->info().flags.branch || t->info().flags.jump))
        succs[static_cast<size_t>(b)][static_cast<size_t>(ns++)] =
            t->target_block;
    }

    auto meet = [](i32 a_, i32 b_) {
      if (a_ == kTop) return b_;
      if (b_ == kTop) return a_;
      return a_ == b_ ? a_ : kUnknownVl;
    };

    bool changed = true;
    while (changed) {
      changed = false;
      for (i32 b = 0; b < n; ++b) {
        if (a.entry_vl[b] == kTop) continue;
        const i32 xvl = xfer_vl[static_cast<size_t>(b)];
        const i32 xvs = xfer_vs[static_cast<size_t>(b)];
        const i32 out_vl = (xvl == kPass) ? a.entry_vl[b] : xvl;
        const i32 out_vs = (xvs == kPass) ? a.entry_vs[b] : xvs;
        for (i32 s : succs[static_cast<size_t>(b)]) {
          if (s < 0) continue;
          const i32 nvl = meet(a.entry_vl[s], out_vl);
          const i32 nvs = meet(a.entry_vs[s], out_vs);
          if (nvl != a.entry_vl[s] || nvs != a.entry_vs[s]) {
            a.entry_vl[s] = nvl;
            a.entry_vs[s] = nvs;
            changed = true;
          }
        }
      }
    }
    return a;
  }
};

/// One dependence edge in the pooled successor lists (see SchedScratch):
/// `next` chains edges sharing a source op, newest first. Iteration order
/// over a node's successors is immaterial — every consumer folds them
/// through max / counting operations.
struct Edge {
  i32 to;
  i32 next;
  Cycle lat;
};

/// Which special register (if any) an op writes.
Reg written_special(const Operation& op) {
  switch (op.op) {
    case Opcode::SETVLI:
    case Opcode::SETVL: return reg_vl();
    case Opcode::SETVSI:
    case Opcode::SETVS: return reg_vs();
    default: return Reg{};
  }
}

/// Per-program scratch shared by every BlockScheduler: flat last-writer /
/// reader tables over the physical register space (plus VL/VS), reset
/// between blocks by undoing only the entries a block touched. Replaces
/// per-block std::map-keyed tracking, which dominated compile time.
class SchedScratch {
 public:
  explicit SchedScratch(const MachineConfig& cfg) {
    const i32 counts[6] = {0, cfg.int_regs, cfg.simd_regs, cfg.vec_regs,
                           cfg.acc_regs, 2 /* VL, VS */};
    i32 total = 0;
    for (int c = 0; c < 6; ++c) {
      off_[c] = total;
      total += counts[c];
    }
    last_def_.assign(static_cast<size_t>(total), -1);
    readers_.assign(static_cast<size_t>(total), {});
    dirty_.assign(static_cast<size_t>(total), 0);
    touched_.reserve(static_cast<size_t>(total));
  }

  i32 index(const Reg& r) const {
    return off_[static_cast<size_t>(r.cls)] + r.id;
  }

  void reset() {
    for (const i32 r : touched_) {
      last_def_[static_cast<size_t>(r)] = -1;
      readers_[static_cast<size_t>(r)].clear();
      dirty_[static_cast<size_t>(r)] = 0;
    }
    touched_.clear();
    wildcard_store = -1;
    for (const i32 g : store_groups)
      last_store_by_group[static_cast<size_t>(g)] = -1;
    store_groups.clear();
    for (const i32 g : load_groups) {
      pending_loads[static_cast<size_t>(g)].clear();
      load_group_live[static_cast<size_t>(g)] = 0;
    }
    load_groups.clear();
  }

  i32 last_def(i32 r) const { return last_def_[static_cast<size_t>(r)]; }
  const std::vector<i32>& readers(i32 r) const {
    return readers_[static_cast<size_t>(r)];
  }

  void add_reader(i32 r, i32 op) {
    touch(r);
    readers_[static_cast<size_t>(r)].push_back(op);
  }
  void set_def(i32 r, i32 op) {
    touch(r);
    last_def_[static_cast<size_t>(r)] = op;
    readers_[static_cast<size_t>(r)].clear();
  }

  // ---- memory-dependence tracking ----------------------------------------
  // Per-alias-group nearest-store / pending-load state, replacing the
  // all-pairs scan over every memory op in the block (quadratic in memory
  // ops, and by far the largest compile cost on the MediaBench-sized
  // blocks). Group 0 may alias everything; when disambiguation is off,
  // every access is treated as group 0. Grown lazily to the largest group
  // id seen; reset() undoes only the entries a block touched.
  i32 wildcard_store = -1;                     // last group-0 store
  std::vector<i32> last_store_by_group;        // -1 = none this block
  std::vector<std::vector<i32>> pending_loads; // loads awaiting a WAR edge
  std::vector<u8> load_group_live;             // group present in load_groups
  std::vector<i32> store_groups, load_groups;  // touched groups (for reset)

  void ensure_mem_group(i32 g) {
    if (static_cast<size_t>(g) >= pending_loads.size()) {
      last_store_by_group.resize(static_cast<size_t>(g) + 1, -1);
      pending_loads.resize(static_cast<size_t>(g) + 1);
      load_group_live.resize(static_cast<size_t>(g) + 1, 0);
    }
  }

  // Successor-edge arena, reused across blocks so per-block edge building
  // costs no allocations once the pool has grown to the largest block.
  std::vector<Edge> edge_pool;
  std::vector<i32> edge_head;  // per op; -1 = no successors

 private:
  void touch(i32 r) {
    if (!dirty_[static_cast<size_t>(r)]) {
      dirty_[static_cast<size_t>(r)] = 1;
      touched_.push_back(r);
    }
  }

  std::array<i32, 6> off_{};
  std::vector<i32> last_def_;
  std::vector<std::vector<i32>> readers_;
  std::vector<u8> dirty_;
  std::vector<i32> touched_;
};

class BlockScheduler {
 public:
  BlockScheduler(const BasicBlock& blk, const MachineConfig& cfg, i32 entry_vl,
                 i32 entry_vs, SchedScratch& scratch)
      : blk_(blk), cfg_(cfg), scratch_(scratch) {
    const i32 n = static_cast<i32>(blk.ops.size());
    vl_.assign(n, kMaxVl);
    vs_.assign(n, kUnknownVl);
    i32 vl = entry_vl, vs = entry_vs;
    for (i32 i = 0; i < n; ++i) {
      vl_[i] = (vl == kUnknownVl) ? kMaxVl : vl;
      vs_[i] = vs;
      const Operation& op = blk.ops[i];
      if (op.op == Opcode::SETVLI) vl = static_cast<i32>(op.imm);
      if (op.op == Opcode::SETVL) vl = kUnknownVl;
      if (op.op == Opcode::SETVSI) vs = static_cast<i32>(op.imm);
      if (op.op == Opcode::SETVS) vs = kUnknownVl;
    }
    // Per-op latency descriptors (paper Fig. 3), computed once: build_edges
    // and list_schedule used to re-derive them through op_info per edge.
    tlr_.assign(n, 0);
    tlw_.assign(n, 0);
    occ_.assign(n, 1);
    for (i32 i = 0; i < n; ++i) {
      const OpInfo& info = blk.ops[i].info();
      if (!info.flags.vector) {
        tlw_[i] = info.latency;
        continue;
      }
      const i64 r = rate(i);
      tlr_[i] = (vl_[i] - 1) / r;
      tlw_[i] = info.latency + (vl_[i] - 1) / r;
      occ_[i] = ceil_div(vl_[i], r);
    }
  }

  /// Element production/consumption rate (elements per cycle) the scheduler
  /// assumes for a vector op. Memory ops are scheduled as stride-one at the
  /// full port width unless the stride-aware ablation is on and the stride
  /// is known to differ (§3.3).
  i64 rate(i32 i) const {
    const Operation& op = blk_.ops[i];
    const OpInfo& info = op.info();
    if (info.fu == FuClass::kVecMem) {
      if (cfg_.stride_aware_sched && vs_[i] != kUnknownVl && vs_[i] != 8) return 1;
      return cfg_.l2_port_elems;
    }
    return cfg_.lanes;
  }

  Cycle tlr(i32 i) const { return tlr_[i]; }
  Cycle tlw(i32 i) const { return tlw_[i]; }
  Cycle occupancy(i32 i) const { return occ_[i]; }

  BlockSchedule run() {
    build_edges();
    compute_priorities();
    return list_schedule();
  }

 private:
  void add_edge(i32 from, i32 to, Cycle lat) {
    if (from == to) return;
    auto& pool = scratch_.edge_pool;
    auto& head = scratch_.edge_head;
    pool.push_back(Edge{to, head[static_cast<size_t>(from)],
                        std::max<Cycle>(lat, 0)});
    head[static_cast<size_t>(from)] = static_cast<i32>(pool.size()) - 1;
    ++pred_count_[to];
  }

  void build_edges() {
    const i32 n = static_cast<i32>(blk_.ops.size());
    scratch_.edge_pool.clear();
    scratch_.edge_head.assign(static_cast<size_t>(n), -1);
    pred_count_.assign(n, 0);
    term_ = -1;
    scratch_.reset();

    for (i32 j = 0; j < n; ++j) {
      const Operation& op = blk_.ops[j];
      const OpInfo& info = op.info();

      // Register reads: architectural srcs plus implicit VL/VS reads.
      std::array<Reg, 5> reads;
      int nreads = 0;
      for (u8 s = 0; s < info.nsrc; ++s)
        if (op.src[s].valid()) reads[static_cast<size_t>(nreads++)] = op.src[s];
      if (info.flags.reads_vl) reads[static_cast<size_t>(nreads++)] = reg_vl();
      if (info.flags.reads_vs) reads[static_cast<size_t>(nreads++)] = reg_vs();

      for (int k = 0; k < nreads; ++k) {
        const Reg r = reads[static_cast<size_t>(k)];
        const i32 fr = scratch_.index(r);
        if (const i32 i = scratch_.last_def(fr); i >= 0) {
          // RAW. Chaining: a vector op consuming a vector register may start
          // once the producer's first elements are available (offset = the
          // producer's flow latency), because both proceed at compatible
          // element rates (§3.3).
          const Operation& prod = blk_.ops[i];
          Cycle lat;
          if (cfg_.chaining && r.cls == RegClass::kVreg &&
              prod.info().flags.vector && info.flags.vector) {
            lat = prod.info().latency;
          } else {
            lat = tlw(i);
          }
          add_edge(i, j, lat);
        }
        scratch_.add_reader(fr, j);
      }

      // Register writes: dst plus special-register writes.
      std::array<Reg, 2> writes;
      int nwrites = 0;
      if (op.dst.valid()) writes[static_cast<size_t>(nwrites++)] = op.dst;
      if (const Reg sp = written_special(op); sp.valid())
        writes[static_cast<size_t>(nwrites++)] = sp;

      for (int k = 0; k < nwrites; ++k) {
        const i32 fw = scratch_.index(writes[static_cast<size_t>(k)]);
        // WAR edges from readers since the previous def.
        for (i32 i : scratch_.readers(fw))
          if (i != j) add_edge(i, j, tlr(i) + 1 - info.latency);
        // WAW edge from previous def.
        if (const i32 i = scratch_.last_def(fw); i >= 0)
          add_edge(i, j, std::max<Cycle>(1, tlw(i) - tlw(j) + 1));
        scratch_.set_def(fw, j);
      }

      // Memory dependences. Semantically this is "an edge from every
      // earlier may-aliasing access (store→load RAW at 1 + tlr(i),
      // store→store WAW likewise, load→store WAR at tlr(i) + 1 - lat)";
      // materializing that all-pairs set is quadratic in the block's
      // memory ops. Instead only the *nearest* constraints are emitted;
      // every elided edge is dominated by a retained path — the schedule
      // (and every priority) is provably identical:
      //   - store→store edges chain: each hop costs max(1, 1 + tlr) and
      //     the first hop out of i already carries the full direct
      //     latency 1 + tlr(i), so older aliasing stores reach j late
      //     enough through the chain. The same chain covers store→load
      //     edges from any store older than the nearest one.
      //   - a pending load l is dropped once some aliasing store S has
      //     taken its WAR edge *and* the path l→S→(store chain)→j beats
      //     the strongest possible direct WAR edge to a future store j:
      //       tlr(S) + 1 + max(0, tlr(l) + 1 - lat(S)) >= tlr(l)
      //     (future stores have latency >= 1, so tlr(l) bounds the
      //     direct latency). Scalar stores always satisfy this; a VST
      //     with a short ramp may not, in which case l simply stays
      //     pending and later stores still get their direct edges.
      //   - a store that only aliases its own group can never stand in
      //     for future stores of *other* groups, so wildcard (group-0)
      //     pending loads are only dropped by wildcard stores.
      if (info.flags.mem_load || info.flags.mem_store) {
        const i32 g = (cfg_.mem_disambiguation)
                          ? static_cast<i32>(op.alias_group)
                          : 0;
        scratch_.ensure_mem_group(g);
        // Nearest aliasing store(s): the RAW sources of a load and the
        // WAW sources of a store are the same set.
        if (g != 0) {
          const i32 s = std::max(
              scratch_.last_store_by_group[static_cast<size_t>(g)],
              scratch_.wildcard_store);
          if (s >= 0) add_edge(s, j, 1 + tlr(s));
        } else {
          if (scratch_.wildcard_store >= 0)
            add_edge(scratch_.wildcard_store, j,
                     1 + tlr(scratch_.wildcard_store));
          for (const i32 h : scratch_.store_groups)
            if (const i32 s =
                    scratch_.last_store_by_group[static_cast<size_t>(h)];
                s >= 0)
              add_edge(s, j, 1 + tlr(s));
        }
        if (info.flags.mem_load) {
          if (!scratch_.load_group_live[static_cast<size_t>(g)]) {
            scratch_.load_group_live[static_cast<size_t>(g)] = 1;
            scratch_.load_groups.push_back(g);
          }
          scratch_.pending_loads[static_cast<size_t>(g)].push_back(j);
        } else {
          // WAR edges from pending aliasing loads.
          const auto war = [&](std::vector<i32>& pl, bool can_drop) {
            size_t keep = 0;
            for (const i32 l : pl) {
              add_edge(l, j, tlr(l) + 1 - info.latency);
              const Cycle hop =
                  std::max<Cycle>(tlr(l) + 1 - info.latency, 0);
              const bool dominated = tlr(j) + 1 + hop >= tlr(l);
              if (!(can_drop && dominated)) pl[keep++] = l;
            }
            pl.resize(keep);
          };
          if (g != 0) {
            war(scratch_.pending_loads[static_cast<size_t>(g)], true);
            war(scratch_.pending_loads[0], false);
          } else {
            for (const i32 h : scratch_.load_groups)
              war(scratch_.pending_loads[static_cast<size_t>(h)], true);
          }
          if (g == 0) {
            scratch_.wildcard_store = j;
            for (const i32 h : scratch_.store_groups)
              scratch_.last_store_by_group[static_cast<size_t>(h)] = -1;
            scratch_.store_groups.clear();
          } else {
            if (scratch_.last_store_by_group[static_cast<size_t>(g)] < 0)
              scratch_.store_groups.push_back(g);
            scratch_.last_store_by_group[static_cast<size_t>(g)] = j;
          }
        }
      }

      // Everything precedes the terminator (it must sit in the last word).
      // Kept implicit — one counter and a flag instead of j materialized
      // zero-latency edges, which made edge building O(n^2) in block size.
      const bool is_term = info.flags.branch || info.flags.jump || info.flags.halt;
      if (is_term) {
        term_ = j;
        pred_count_[j] += j;
      }
    }
  }

  void compute_priorities() {
    const i32 n = static_cast<i32>(blk_.ops.size());
    prio_.assign(n, 0);
    for (i32 i = n - 1; i >= 0; --i) {
      Cycle p = occupancy(i);
      for (i32 ei = scratch_.edge_head[static_cast<size_t>(i)]; ei >= 0;
           ei = scratch_.edge_pool[static_cast<size_t>(ei)].next) {
        const Edge& e = scratch_.edge_pool[static_cast<size_t>(ei)];
        p = std::max(p, e.lat + prio_[e.to]);
      }
      if (term_ >= 0 && i < term_) p = std::max(p, prio_[term_]);
      prio_[i] = p;
    }
  }

  /// A functional-unit pool: per-instance busy-until times.
  struct Pool {
    std::vector<Cycle> busy;
    explicit Pool(i32 count) : busy(static_cast<size_t>(std::max(count, 0)), 0) {}
    bool try_take(Cycle t, Cycle occ) {
      for (auto& b : busy)
        if (b <= t) {
          b = t + occ;
          return true;
        }
      return false;
    }
  };

  BlockSchedule list_schedule() {
    const i32 n = static_cast<i32>(blk_.ops.size());
    BlockSchedule out;
    out.issue.assign(n, 0);
    out.sched_vl.assign(n, 1);
    if (n == 0) return out;

    std::vector<Cycle> earliest(n, 0);
    std::vector<i32> preds_left = pred_count_;

    Pool ints(cfg_.int_units), simds(cfg_.simd_units), vecs(cfg_.vec_units),
        l1(cfg_.l1_ports), l2(cfg_.l2_ports), br(cfg_.branch_units);
    auto pool_for = [&](FuClass fu) -> Pool* {
      switch (fu) {
        case FuClass::kInt: return &ints;
        case FuClass::kMem: return &l1;
        case FuClass::kBranch: return &br;
        case FuClass::kSimd: return &simds;
        case FuClass::kVec: return &vecs;
        case FuClass::kVecMem: return &l2;
        case FuClass::kNone: return nullptr;
      }
      return nullptr;
    };

    // Candidate order of the original per-cycle rescan-and-sort: highest
    // priority first, index-ascending on ties. `released` holds every op
    // whose predecessors have all issued, kept sorted; ops released while
    // placing cycle t only become candidates from t+1 (as before, where the
    // ready list was snapshotted at the top of each cycle).
    auto before = [&](i32 a, i32 b) {
      return prio_[a] > prio_[b] || (prio_[a] == prio_[b] && a < b);
    };
    std::vector<i32> released;
    for (i32 i = 0; i < n; ++i)
      if (preds_left[i] == 0) released.push_back(i);
    std::sort(released.begin(), released.end(), before);

    std::vector<i32> newly, word;
    i32 remaining = n;
    Cycle t = 0;
    while (remaining > 0) {
      word.clear();
      newly.clear();
      i32 slots = cfg_.issue_width;
      bool deferred = false;  // a ready candidate could not be placed at t
      size_t keep = 0;

      auto release = [&](i32 to) {
        if (--preds_left[to] == 0) newly.push_back(to);
      };

      for (size_t ri = 0; ri < released.size(); ++ri) {
        const i32 i = released[ri];
        if (earliest[i] > t) {
          released[keep++] = i;
          continue;
        }
        if (slots <= 0) {
          deferred = true;
          released[keep++] = i;
          continue;
        }
        Pool* pool = pool_for(blk_.ops[static_cast<size_t>(i)].info().fu);
        if (pool && !pool->try_take(t, occupancy(i))) {
          deferred = true;
          released[keep++] = i;
          continue;
        }
        out.issue[i] = t;
        out.sched_vl[i] = blk_.ops[static_cast<size_t>(i)].info().flags.vector ? vl_[i] : 1;
        word.push_back(i);
        --slots;
        --remaining;
        for (i32 ei = scratch_.edge_head[static_cast<size_t>(i)]; ei >= 0;
             ei = scratch_.edge_pool[static_cast<size_t>(ei)].next) {
          const Edge& e = scratch_.edge_pool[static_cast<size_t>(ei)];
          earliest[e.to] = std::max(earliest[e.to], t + e.lat);
          release(e.to);
        }
        if (term_ >= 0 && i != term_) {
          earliest[term_] = std::max(earliest[term_], t);
          release(term_);
        }
      }
      released.resize(keep);
      for (const i32 i : newly)
        released.insert(
            std::lower_bound(released.begin(), released.end(), i, before), i);

      if (!word.empty()) {
        VliwWord w;
        w.cycle = t;
        w.ops = std::move(word);
        out.words.push_back(std::move(w));
        word.clear();
      }

      if (remaining > 0) {
        if (!deferred && !released.empty()) {
          // Nothing pending is ready before its earliest time: skip the
          // cycles the original implementation idled through one by one.
          Cycle next = earliest[released[0]];
          for (const i32 i : released) next = std::min(next, earliest[i]);
          t = std::max(t + 1, next);
        } else {
          ++t;
        }
        VUV_CHECK(t < 1'000'000, "scheduler failed to converge");
      }
    }

    out.length = out.words.empty() ? 0 : out.words.back().cycle + 1;
    return out;
  }

  const BasicBlock& blk_;
  const MachineConfig& cfg_;
  SchedScratch& scratch_;
  std::vector<i32> vl_, vs_;  // scheduler-visible VL/VS at each op
  std::vector<Cycle> tlr_, tlw_, occ_;
  std::vector<i32> pred_count_;
  std::vector<Cycle> prio_;
  i32 term_ = -1;  // terminator op (implicit 0-latency successor of all)
};

void check_isa_level(const Program& prog, const MachineConfig& cfg) {
  for (const BasicBlock& blk : prog.blocks) {
    for (const Operation& op : blk.ops) {
      const FuClass fu = op.info().fu;
      if ((fu == FuClass::kSimd || op.op == Opcode::LDQS || op.op == Opcode::STQS) &&
          cfg.simd_units == 0)
        throw CompileError("program uses µSIMD ops but " + cfg.name +
                           " has no µSIMD units");
      if ((fu == FuClass::kVec || fu == FuClass::kVecMem) && cfg.vec_units == 0)
        throw CompileError("program uses vector ops but " + cfg.name +
                           " has no vector units");
    }
  }
}

}  // namespace

ScheduledProgram schedule_program(Program prog, const MachineConfig& cfg) {
  VUV_CHECK(prog.allocated, "schedule_program requires allocated registers");
  const VlAnalysis vl = VlAnalysis::run(prog);
  ScheduledProgram out;
  out.cfg = cfg;
  out.blocks.reserve(prog.blocks.size());
  SchedScratch scratch(cfg);
  for (size_t b = 0; b < prog.blocks.size(); ++b) {
    BlockScheduler sched(prog.blocks[b], cfg, vl.entry_vl[b], vl.entry_vs[b],
                         scratch);
    out.blocks.push_back(sched.run());
  }
  out.prog = std::move(prog);
  return out;
}

namespace {

/// Strict mode's full static lint (structural rules included); errors are
/// fatal.
void strict_lint(const Program& prog, const CompileOptions& opts) {
  const lint::DiagReport rep =
      lint::lint_program(prog, {opts.unit, opts.mem_extent});
  if (rep.errors() > 0)
    throw CompileError("strict verify (" + rep.summary() +
                       "): " + lint::to_string(*rep.first_error()));
}

/// The configuration-dependent pipeline of a verified, planned program.
ScheduledProgram compile_verified(Program prog, const MachineConfig& cfg,
                                  const RegPlan& plan,
                                  const CompileOptions& opts) {
  check_isa_level(prog, cfg);
  Program source;
  if (opts.strict_verify) source = prog;  // pre-allocation image for checking
  allocate_registers(prog, cfg, plan);
  ScheduledProgram out = schedule_program(std::move(prog), cfg);
  if (opts.strict_verify) {
    const lint::DiagReport rep =
        lint::check_schedule(out, &source, {opts.unit});
    if (rep.errors() > 0)
      throw CompileError("strict schedule check (" + rep.summary() +
                         "): " + lint::to_string(*rep.first_error()));
  }
  return out;
}

}  // namespace

ScheduledProgram compile(Program prog, const MachineConfig& cfg,
                         const CompileOptions& opts) {
  if (opts.strict_verify)
    strict_lint(prog, opts);
  else
    verify(prog);
  const RegPlan plan = plan_registers(prog);
  return compile_verified(std::move(prog), cfg, plan, opts);
}

ScheduledProgram compile(Program prog, const MachineConfig& cfg,
                         const RegPlan& plan, const CompileOptions& opts) {
  if (opts.strict_verify) strict_lint(prog, opts);
  return compile_verified(std::move(prog), cfg, plan, opts);
}

}  // namespace vuv
