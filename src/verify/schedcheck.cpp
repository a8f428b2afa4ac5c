#include "verify/schedcheck.hpp"

#include <algorithm>
#include <map>
#include <vector>

namespace vuv::lint {

namespace {

constexpr i32 kUnknownVl = -1;
constexpr i32 kTopVl = -2;

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

i32 fu_units(const MachineConfig& cfg, FuClass fu) {
  switch (fu) {
    case FuClass::kInt: return cfg.int_units;
    case FuClass::kMem: return cfg.l1_ports;
    case FuClass::kBranch: return cfg.branch_units;
    case FuClass::kSimd: return cfg.simd_units;
    case FuClass::kVec: return cfg.vec_units;
    case FuClass::kVecMem: return cfg.l2_ports;
    case FuClass::kNone: return 0;
  }
  return 0;
}

i32 file_size(const MachineConfig& cfg, RegClass cls) {
  switch (cls) {
    case RegClass::kInt: return cfg.int_regs;
    case RegClass::kSimd: return cfg.simd_regs;
    case RegClass::kVreg: return cfg.vec_regs;
    case RegClass::kAcc: return cfg.acc_regs;
    case RegClass::kSpecial: return 2;
    case RegClass::kNone: return 0;
  }
  return 0;
}

/// Entry VL/VS per block, re-derived with the same lattice the scheduler
/// documents (§3.3): immediate SETs propagate, register SETs and merge
/// conflicts drop to "unknown" (the scheduler then assumes max VL /
/// stride-one).
struct EntryVlVs {
  std::vector<i32> vl, vs;
};

EntryVlVs entry_vlvs(const Program& prog) {
  const i32 n = static_cast<i32>(prog.blocks.size());
  EntryVlVs a;
  a.vl.assign(static_cast<size_t>(n), kTopVl);
  a.vs.assign(static_cast<size_t>(n), kTopVl);
  a.vl[static_cast<size_t>(prog.entry)] = kUnknownVl;
  a.vs[static_cast<size_t>(prog.entry)] = kUnknownVl;

  auto meet = [](i32 x, i32 y) {
    if (x == kTopVl) return y;
    if (y == kTopVl) return x;
    return x == y ? x : kUnknownVl;
  };

  bool changed = true;
  while (changed) {
    changed = false;
    for (i32 b = 0; b < n; ++b) {
      if (a.vl[static_cast<size_t>(b)] == kTopVl) continue;
      const BasicBlock& blk = prog.blocks[static_cast<size_t>(b)];
      i32 vl = a.vl[static_cast<size_t>(b)], vs = a.vs[static_cast<size_t>(b)];
      for (const Operation& op : blk.ops) {
        if (op.op == Opcode::SETVLI) vl = static_cast<i32>(op.imm);
        if (op.op == Opcode::SETVL) vl = kUnknownVl;
        if (op.op == Opcode::SETVSI) vs = static_cast<i32>(op.imm);
        if (op.op == Opcode::SETVS) vs = kUnknownVl;
      }
      std::vector<i32> succ;
      if (blk.fallthrough >= 0) succ.push_back(blk.fallthrough);
      if (const Operation* t = blk.terminator();
          t && (t->info().flags.branch || t->info().flags.jump))
        succ.push_back(t->target_block);
      for (const i32 s : succ) {
        const i32 nvl = meet(a.vl[static_cast<size_t>(s)], vl);
        const i32 nvs = meet(a.vs[static_cast<size_t>(s)], vs);
        if (nvl != a.vl[static_cast<size_t>(s)] ||
            nvs != a.vs[static_cast<size_t>(s)]) {
          a.vl[static_cast<size_t>(s)] = nvl;
          a.vs[static_cast<size_t>(s)] = nvs;
          changed = true;
        }
      }
    }
  }
  return a;
}

/// Checks one block's schedule against the machine model.
class BlockChecker {
 public:
  BlockChecker(const ScheduledProgram& sp, i32 b, i32 entry_vl, i32 entry_vs,
               const SchedCheckOptions& opts, DiagReport& out)
      : blk_(sp.prog.blocks[static_cast<size_t>(b)]),
        bs_(sp.blocks[static_cast<size_t>(b)]),
        cfg_(sp.cfg),
        b_(b),
        opts_(opts),
        out_(out) {
    const i32 n = static_cast<i32>(blk_.ops.size());
    vl_.assign(static_cast<size_t>(n), 0);
    vs_.assign(static_cast<size_t>(n), 0);
    i32 vl = entry_vl, vs = entry_vs;
    for (i32 i = 0; i < n; ++i) {
      vl_[static_cast<size_t>(i)] = (vl == kUnknownVl) ? kMaxVl : vl;
      vs_[static_cast<size_t>(i)] = vs;
      const Operation& op = blk_.ops[static_cast<size_t>(i)];
      if (op.op == Opcode::SETVLI) vl = static_cast<i32>(op.imm);
      if (op.op == Opcode::SETVL) vl = kUnknownVl;
      if (op.op == Opcode::SETVSI) vs = static_cast<i32>(op.imm);
      if (op.op == Opcode::SETVS) vs = kUnknownVl;
    }
    tlr_.assign(static_cast<size_t>(n), 0);
    tlw_.assign(static_cast<size_t>(n), 0);
    occ_.assign(static_cast<size_t>(n), 1);
    for (i32 i = 0; i < n; ++i) {
      const OpInfo& info = blk_.ops[static_cast<size_t>(i)].info();
      if (!info.flags.vector) {
        tlw_[static_cast<size_t>(i)] = info.latency;
        continue;
      }
      const i64 r = rate(i);
      tlr_[static_cast<size_t>(i)] = (vl_[static_cast<size_t>(i)] - 1) / r;
      tlw_[static_cast<size_t>(i)] =
          info.latency + (vl_[static_cast<size_t>(i)] - 1) / r;
      occ_[static_cast<size_t>(i)] = ceil_div(vl_[static_cast<size_t>(i)], r);
    }
  }

  void run() {
    if (!check_shape()) return;
    check_sched_vl();
    check_words();
    check_fu();
    check_deps();
    check_terminator();
  }

 private:
  void diag(const std::string& rule, i32 op, const std::string& msg) {
    out_.add(Severity::kError, rule, opts_.unit, b_, op, msg);
  }

  i64 rate(i32 i) const {
    const OpInfo& info = blk_.ops[static_cast<size_t>(i)].info();
    if (info.fu == FuClass::kVecMem) {
      if (cfg_.stride_aware_sched && vs_[static_cast<size_t>(i)] != kUnknownVl &&
          vs_[static_cast<size_t>(i)] != 8)
        return 1;
      return cfg_.l2_port_elems;
    }
    return cfg_.lanes;
  }

  Cycle tlr(i32 i) const { return tlr_[static_cast<size_t>(i)]; }
  Cycle tlw(i32 i) const { return tlw_[static_cast<size_t>(i)]; }
  Cycle issue(i32 i) const { return bs_.issue[static_cast<size_t>(i)]; }

  bool check_shape() {
    const size_t n = blk_.ops.size();
    if (bs_.issue.size() != n || bs_.sched_vl.size() != n) {
      diag("sched-shape", -1,
           "issue/sched_vl arrays do not match the op count");
      return false;
    }
    std::vector<u8> seen(n, 0);
    Cycle prev = -1;
    bool ok = true;
    for (const VliwWord& w : bs_.words) {
      if (w.cycle <= prev) {
        diag("sched-shape", -1, "word cycles not strictly increasing");
        ok = false;
      }
      prev = w.cycle;
      for (const i32 oi : w.ops) {
        if (oi < 0 || static_cast<size_t>(oi) >= n) {
          diag("sched-shape", -1,
               "word references op " + std::to_string(oi) + " out of range");
          ok = false;
          continue;
        }
        if (seen[static_cast<size_t>(oi)]) {
          diag("sched-shape", oi, "op scheduled more than once");
          ok = false;
        }
        seen[static_cast<size_t>(oi)] = 1;
        if (bs_.issue[static_cast<size_t>(oi)] != w.cycle) {
          diag("sched-shape", oi,
               "issue[] disagrees with the containing word's cycle");
          ok = false;
        }
      }
    }
    for (size_t i = 0; i < n; ++i)
      if (!seen[i]) {
        diag("sched-shape", static_cast<i32>(i), "op never scheduled");
        ok = false;
      }
    const Cycle want_len = bs_.words.empty() ? 0 : bs_.words.back().cycle + 1;
    if (bs_.length != want_len) {
      diag("sched-shape", -1,
           "schedule length " + std::to_string(bs_.length) +
               " != last cycle + 1 (" + std::to_string(want_len) + ")");
      ok = false;
    }
    return ok;
  }

  void check_sched_vl() {
    for (size_t i = 0; i < blk_.ops.size(); ++i) {
      const bool vec = blk_.ops[i].info().flags.vector;
      const i32 want = vec ? vl_[i] : 1;
      if (bs_.sched_vl[i] != want)
        diag("sched-vl-mismatch", static_cast<i32>(i),
             "sched_vl " + std::to_string(bs_.sched_vl[i]) +
                 " but dataflow proves VL " + std::to_string(want));
    }
  }

  void check_words() {
    for (const VliwWord& w : bs_.words)
      if (static_cast<i32>(w.ops.size()) > cfg_.issue_width)
        diag("issue-width", -1,
             "word at cycle " + std::to_string(w.cycle) + " has " +
                 std::to_string(w.ops.size()) + " ops on a " +
                 std::to_string(cfg_.issue_width) + "-issue machine");
  }

  /// Event-sweep over [issue, issue+occupancy) intervals per FU class:
  /// concurrent demand must never exceed the configured unit count.
  void check_fu() {
    for (int f = 1; f <= 6; ++f) {
      const FuClass fu = static_cast<FuClass>(f);
      std::vector<std::pair<Cycle, i32>> events;  // (+1 at issue, -1 at end)
      for (size_t i = 0; i < blk_.ops.size(); ++i) {
        if (blk_.ops[i].info().fu != fu) continue;
        const Cycle occ = occ_[i];
        if (occ <= 0) continue;
        events.emplace_back(bs_.issue[i], 1);
        events.emplace_back(bs_.issue[i] + occ, -1);
      }
      if (events.empty()) continue;
      std::sort(events.begin(), events.end(),
                [](const auto& a, const auto& b) {
                  return a.first < b.first ||
                         (a.first == b.first && a.second < b.second);
                });
      const i32 units = fu_units(cfg_, fu);
      i32 cur = 0;
      for (const auto& [t, d] : events) {
        cur += d;
        if (cur > units) {
          diag("fu-overcommit", -1,
               std::to_string(cur) + " concurrent ops on FU class " +
                   std::to_string(f) + " at cycle " + std::to_string(t) +
                   " but only " + std::to_string(units) + " units");
          return;  // one finding per class per block
        }
      }
    }
  }

  /// Flat physical-register index (classes at their configured file sizes,
  /// VL/VS at the end), or -1 when the id is out of the file (reported).
  i32 flat(const Reg& r, i32 opi) {
    const i32 size = file_size(cfg_, r.cls);
    if (r.id < 0 || r.id >= size) {
      diag("phys-out-of-range", opi,
           "physical register " + vuv::to_string(r) + " outside file of " +
               std::to_string(size));
      return -1;
    }
    i32 off = 0;
    for (int c = 1; c < static_cast<int>(r.cls); ++c)
      off += file_size(cfg_, static_cast<RegClass>(c));
    return off + r.id;
  }

  void check_deps() {
    i32 total = 0;
    for (int c = 1; c <= 5; ++c)
      total += file_size(cfg_, static_cast<RegClass>(c));
    std::vector<i32> last_def(static_cast<size_t>(total), -1);
    std::vector<std::vector<i32>> readers(static_cast<size_t>(total));
    std::vector<i32> mem_ops;

    // Every dependence spans words (lag >= 1), a WAR whose latency allows
    // the same cycle included: replay writes each result in place, so no op
    // of a word may read what another op of the word writes.
    auto require = [&](i32 i, i32 j, Cycle lat, const char* rule,
                       const std::string& what) {
      lat = std::max<Cycle>(lat, 1);
      if (issue(j) < issue(i) + lat)
        diag(rule, j,
             what + " on op " + std::to_string(i) + ": needs issue >= " +
                 std::to_string(issue(i) + lat) + ", scheduled at " +
                 std::to_string(issue(j)));
    };

    const i32 n = static_cast<i32>(blk_.ops.size());
    for (i32 j = 0; j < n; ++j) {
      const Operation& op = blk_.ops[static_cast<size_t>(j)];
      const OpInfo& info = op.info();

      std::array<Reg, 5> reads;
      int nreads = 0;
      for (u8 s = 0; s < info.nsrc; ++s)
        if (op.src[s].valid()) reads[static_cast<size_t>(nreads++)] = op.src[s];
      if (info.flags.reads_vl) reads[static_cast<size_t>(nreads++)] = reg_vl();
      if (info.flags.reads_vs) reads[static_cast<size_t>(nreads++)] = reg_vs();

      for (int k = 0; k < nreads; ++k) {
        const Reg r = reads[static_cast<size_t>(k)];
        const i32 fr = flat(r, j);
        if (fr < 0) continue;
        if (const i32 i = last_def[static_cast<size_t>(fr)]; i >= 0) {
          const Operation& prod = blk_.ops[static_cast<size_t>(i)];
          Cycle lat;
          if (cfg_.chaining && r.cls == RegClass::kVreg &&
              prod.info().flags.vector && info.flags.vector)
            lat = prod.info().latency;  // chained: wait for first elements
          else
            lat = tlw(i);
          require(i, j, lat, "raw-violation",
                  "RAW through " + vuv::to_string(r));
        }
        readers[static_cast<size_t>(fr)].push_back(j);
      }

      std::array<Reg, 2> writes;
      int nwrites = 0;
      if (op.dst.valid()) writes[static_cast<size_t>(nwrites++)] = op.dst;
      if (const Reg sp = written_special(op); sp.valid())
        writes[static_cast<size_t>(nwrites++)] = sp;
      for (int k = 0; k < nwrites; ++k) {
        const Reg w = writes[static_cast<size_t>(k)];
        const i32 fw = flat(w, j);
        if (fw < 0) continue;
        for (const i32 i : readers[static_cast<size_t>(fw)])
          if (i != j)
            require(i, j, tlr(i) + 1 - info.latency, "war-violation",
                    "WAR through " + vuv::to_string(w));
        if (const i32 i = last_def[static_cast<size_t>(fw)]; i >= 0 && i != j)
          require(i, j, std::max<Cycle>(1, tlw(i) - tlw(j) + 1),
                  "waw-violation", "WAW through " + vuv::to_string(w));
        last_def[static_cast<size_t>(fw)] = j;
        readers[static_cast<size_t>(fw)].clear();
      }

      if (info.flags.mem_load || info.flags.mem_store) {
        for (const i32 i : mem_ops) {
          const OpInfo& pi = blk_.ops[static_cast<size_t>(i)].info();
          if (pi.flags.mem_load && info.flags.mem_load) continue;
          if (!may_alias(blk_.ops[static_cast<size_t>(i)], op)) continue;
          const Cycle lat =
              pi.flags.mem_store ? 1 + tlr(i) : tlr(i) + 1 - info.latency;
          require(i, j, lat, "mem-order-violation", "memory dependence");
        }
        mem_ops.push_back(j);
      }
    }
  }

  bool may_alias(const Operation& a, const Operation& b) const {
    if (!cfg_.mem_disambiguation) return true;
    if (a.alias_group == 0 || b.alias_group == 0) return true;
    return a.alias_group == b.alias_group;
  }

  void check_terminator() {
    i32 term = -1;
    for (size_t i = 0; i < blk_.ops.size(); ++i) {
      const OpFlags f = blk_.ops[i].info().flags;
      if (f.branch || f.jump || f.halt) term = static_cast<i32>(i);
    }
    if (term < 0) return;
    if (!bs_.words.empty()) {
      const VliwWord& last = bs_.words.back();
      if (std::find(last.ops.begin(), last.ops.end(), term) == last.ops.end())
        diag("terminator-order", term,
             "control transfer is not in the last word");
    }
    for (size_t i = 0; i < blk_.ops.size(); ++i)
      if (issue(static_cast<i32>(i)) > issue(term))
        diag("terminator-order", static_cast<i32>(i),
             "op issues after the block terminator");
  }

  const BasicBlock& blk_;
  const BlockSchedule& bs_;
  const MachineConfig& cfg_;
  i32 b_;
  const SchedCheckOptions& opts_;
  DiagReport& out_;
  std::vector<i32> vl_, vs_;
  std::vector<Cycle> tlr_, tlw_, occ_;
};

// ---- register-allocation soundness -----------------------------------------

struct Interval {
  i64 start = -1, end = -1;
};

/// Dense one-word-per-register bitset for the compact liveness sets below.
class Bits {
 public:
  void resize(i32 bits) { w_.assign(static_cast<size_t>((bits + 63) / 64), 0); }
  void set(i32 i) { w_[static_cast<size_t>(i >> 6)] |= 1ULL << (i & 63); }
  void reset(i32 i) { w_[static_cast<size_t>(i >> 6)] &= ~(1ULL << (i & 63)); }
  bool test(i32 i) const {
    return (w_[static_cast<size_t>(i >> 6)] >> (i & 63)) & 1;
  }
  void or_with(const Bits& o) {
    for (size_t k = 0; k < w_.size(); ++k) w_[k] |= o.w_[k];
  }
  bool operator==(const Bits& o) const { return w_ == o.w_; }

 private:
  std::vector<u64> w_;
};

/// Coarse live intervals over the source (virtual-register) program: every
/// use/def position extends the interval, and liveness across block
/// boundaries extends it to the block's start/end — matching the allocator's
/// own interval model, which is what "no two live intervals share a phys
/// reg" must be judged against.
///
/// Cross-block liveness sets cover only "global" registers (those with an
/// upward-exposed use in some block — the only ones that can be live across
/// a boundary): the generated apps declare hundreds of thousands of virtual
/// registers, nearly all block-local, and dense per-block sets over the full
/// space would dominate the whole verification.
std::vector<Interval> source_intervals(const Program& src, i32 total,
                                       const std::array<i32, 6>& off) {
  auto index = [&](const Reg& r) {
    return off[static_cast<size_t>(r.cls)] + r.id;
  };
  const i32 nblocks = static_cast<i32>(src.blocks.size());
  std::vector<i64> bstart(static_cast<size_t>(nblocks)),
      bend(static_cast<size_t>(nblocks));
  i64 pos = 0;
  for (i32 b = 0; b < nblocks; ++b) {
    bstart[static_cast<size_t>(b)] = pos;
    pos += static_cast<i64>(src.blocks[static_cast<size_t>(b)].ops.size());
    bend[static_cast<size_t>(b)] = pos;
  }

  // Globals: read before any write in some block.
  std::vector<i32> gidx(static_cast<size_t>(total), -1);
  std::vector<i32> gback;  // compact global index -> flat index
  {
    std::vector<u32> wr(static_cast<size_t>(total), 0);
    u32 epoch = 0;
    for (const BasicBlock& blk : src.blocks) {
      ++epoch;
      for (const Operation& op : blk.ops) {
        const OpInfo& info = op.info();
        for (u8 s = 0; s < info.nsrc; ++s) {
          const Reg r = op.src[s];
          if (!r.valid() || r.cls == RegClass::kSpecial) continue;
          const size_t f = static_cast<size_t>(index(r));
          if (wr[f] != epoch && gidx[f] < 0) gidx[f] = 0;
        }
        if (op.dst.valid() && op.dst.cls != RegClass::kSpecial)
          wr[static_cast<size_t>(index(op.dst))] = epoch;
      }
    }
    for (i32 f = 0; f < total; ++f)
      if (gidx[static_cast<size_t>(f)] == 0) {
        gidx[static_cast<size_t>(f)] = static_cast<i32>(gback.size());
        gback.push_back(f);
      }
  }
  const i32 n_globals = static_cast<i32>(gback.size());

  // Backward liveness (union over successors) on the compact global space.
  std::vector<Bits> use(static_cast<size_t>(nblocks)),
      def(static_cast<size_t>(nblocks)), live_in(static_cast<size_t>(nblocks)),
      live_out(static_cast<size_t>(nblocks));
  std::vector<std::vector<i32>> succ(static_cast<size_t>(nblocks));
  for (i32 b = 0; b < nblocks; ++b) {
    use[static_cast<size_t>(b)].resize(n_globals);
    def[static_cast<size_t>(b)].resize(n_globals);
    live_in[static_cast<size_t>(b)].resize(n_globals);
    live_out[static_cast<size_t>(b)].resize(n_globals);
    const BasicBlock& blk = src.blocks[static_cast<size_t>(b)];
    for (const Operation& op : blk.ops) {
      const OpInfo& info = op.info();
      for (u8 s = 0; s < info.nsrc; ++s) {
        const Reg r = op.src[s];
        if (!r.valid() || r.cls == RegClass::kSpecial) continue;
        const i32 g = gidx[static_cast<size_t>(index(r))];
        if (g >= 0 && !def[static_cast<size_t>(b)].test(g))
          use[static_cast<size_t>(b)].set(g);
      }
      if (op.dst.valid() && op.dst.cls != RegClass::kSpecial)
        if (const i32 g = gidx[static_cast<size_t>(index(op.dst))]; g >= 0)
          def[static_cast<size_t>(b)].set(g);
    }
    if (blk.fallthrough >= 0) succ[static_cast<size_t>(b)].push_back(blk.fallthrough);
    if (const Operation* t = blk.terminator();
        t && (t->info().flags.branch || t->info().flags.jump))
      succ[static_cast<size_t>(b)].push_back(t->target_block);
  }
  bool changed = true;
  while (changed) {
    changed = false;
    for (i32 b = nblocks - 1; b >= 0; --b) {
      Bits o;
      o.resize(n_globals);
      for (const i32 s : succ[static_cast<size_t>(b)])
        o.or_with(live_in[static_cast<size_t>(s)]);
      Bits in = o;
      for (i32 g = 0; g < n_globals; ++g) {
        if (def[static_cast<size_t>(b)].test(g)) in.reset(g);
        if (use[static_cast<size_t>(b)].test(g)) in.set(g);
      }
      if (!(o == live_out[static_cast<size_t>(b)]) ||
          !(in == live_in[static_cast<size_t>(b)])) {
        live_out[static_cast<size_t>(b)] = o;
        live_in[static_cast<size_t>(b)] = in;
        changed = true;
      }
    }
  }

  std::vector<Interval> iv(static_cast<size_t>(total));
  auto extend = [&](i32 f, i64 at) {
    Interval& x = iv[static_cast<size_t>(f)];
    if (x.start < 0) {
      x.start = x.end = at;
    } else {
      x.start = std::min(x.start, at);
      x.end = std::max(x.end, at);
    }
  };
  for (i32 b = 0; b < nblocks; ++b) {
    for (i32 g = 0; g < n_globals; ++g) {
      if (live_in[static_cast<size_t>(b)].test(g))
        extend(gback[static_cast<size_t>(g)], bstart[static_cast<size_t>(b)]);
      if (live_out[static_cast<size_t>(b)].test(g))
        extend(gback[static_cast<size_t>(g)], bend[static_cast<size_t>(b)]);
    }
    i64 p = bstart[static_cast<size_t>(b)];
    for (const Operation& op : src.blocks[static_cast<size_t>(b)].ops) {
      const OpInfo& info = op.info();
      for (u8 s = 0; s < info.nsrc; ++s)
        if (op.src[s].valid() && op.src[s].cls != RegClass::kSpecial)
          extend(index(op.src[s]), p);
      if (op.dst.valid() && op.dst.cls != RegClass::kSpecial)
        extend(index(op.dst), p);
      ++p;
    }
  }
  return iv;
}

void check_regalloc(const ScheduledProgram& sp, const Program& src,
                    const SchedCheckOptions& opts, DiagReport& out) {
  auto diag = [&](const std::string& rule, i32 b, i32 op,
                  const std::string& msg) {
    out.add(Severity::kError, rule, opts.unit, b, op, msg);
  };

  if (src.allocated) {
    diag("ir-mismatch", -1, -1, "source program already register-allocated");
    return;
  }
  if (!sp.prog.allocated) {
    diag("ir-mismatch", -1, -1, "scheduled program not register-allocated");
    return;
  }
  if (src.blocks.size() != sp.prog.blocks.size()) {
    diag("ir-mismatch", -1, -1,
         "block count changed: " + std::to_string(src.blocks.size()) +
             " -> " + std::to_string(sp.prog.blocks.size()));
    return;
  }
  if (src.entry != sp.prog.entry)
    diag("ir-mismatch", -1, -1, "entry block changed");

  // Virtual -> physical mapping from operand-by-operand comparison. Every
  // semantic field must survive allocation; every virtual register must map
  // to exactly one in-range physical register of the same class.
  std::array<i32, 6> off{};
  i32 total = 0;
  for (int c = 0; c < 6; ++c) {
    off[static_cast<size_t>(c)] = total;
    const auto cls = static_cast<RegClass>(c);
    if (cls != RegClass::kNone && cls != RegClass::kSpecial)
      total += src.reg_count[static_cast<size_t>(c)];
  }
  std::vector<i32> phys(static_cast<size_t>(total), -1);

  auto match_reg = [&](const Reg& v, const Reg& p, i32 b, i32 opi) {
    if (v.cls != p.cls) {
      diag("ir-mismatch", b, opi, "operand register class changed");
      return;
    }
    if (!v.valid() || v.cls == RegClass::kSpecial) {
      if (v.id != p.id) diag("ir-mismatch", b, opi, "special operand changed");
      return;
    }
    if (v.id < 0 || v.id >= src.reg_count[static_cast<size_t>(v.cls)]) return;
    if (p.id < 0 || p.id >= file_size(sp.cfg, p.cls)) {
      diag("phys-out-of-range", b, opi,
           "physical register " + vuv::to_string(p) + " outside file of " +
               std::to_string(file_size(sp.cfg, p.cls)));
      return;
    }
    const size_t f = static_cast<size_t>(off[static_cast<size_t>(v.cls)] + v.id);
    if (phys[f] < 0)
      phys[f] = p.id;
    else if (phys[f] != p.id)
      diag("remap-inconsistent", b, opi,
           "virtual " + vuv::to_string(v) + " mapped to both phys " +
               std::to_string(phys[f]) + " and " + std::to_string(p.id));
  };

  for (size_t b = 0; b < src.blocks.size(); ++b) {
    const BasicBlock& sb = src.blocks[b];
    const BasicBlock& ab = sp.prog.blocks[b];
    if (sb.ops.size() != ab.ops.size()) {
      diag("ir-mismatch", static_cast<i32>(b), -1,
           "op count changed: " + std::to_string(sb.ops.size()) + " -> " +
               std::to_string(ab.ops.size()));
      continue;
    }
    if (sb.fallthrough != ab.fallthrough)
      diag("ir-mismatch", static_cast<i32>(b), -1, "fallthrough changed");
    for (size_t i = 0; i < sb.ops.size(); ++i) {
      const Operation& so = sb.ops[i];
      const Operation& ao = ab.ops[i];
      if (so.op != ao.op || so.imm != ao.imm ||
          so.target_block != ao.target_block ||
          so.alias_group != ao.alias_group) {
        diag("ir-mismatch", static_cast<i32>(b), static_cast<i32>(i),
             "op '" + vuv::to_string(so) + "' became '" + vuv::to_string(ao) +
                 "'");
        continue;
      }
      match_reg(so.dst, ao.dst, static_cast<i32>(b), static_cast<i32>(i));
      for (u8 s = 0; s < 3; ++s)
        match_reg(so.src[s], ao.src[s], static_cast<i32>(b),
                  static_cast<i32>(i));
    }
  }

  // Interference: same-class intervals assigned the same physical register
  // must be disjoint.
  const std::vector<Interval> iv = source_intervals(src, total, off);
  struct Owned {
    Interval iv;
    i32 virt;
  };
  for (int c = 1; c <= 4; ++c) {
    const auto cls = static_cast<RegClass>(c);
    std::map<i32, std::vector<Owned>> by_phys;
    for (i32 id = 0; id < src.reg_count[static_cast<size_t>(c)]; ++id) {
      const size_t f = static_cast<size_t>(off[static_cast<size_t>(c)] + id);
      if (iv[f].start < 0 || phys[f] < 0) continue;
      by_phys[phys[f]].push_back({iv[f], id});
    }
    for (auto& [p, list] : by_phys) {
      std::sort(list.begin(), list.end(), [](const Owned& a, const Owned& b) {
        return a.iv.start < b.iv.start ||
               (a.iv.start == b.iv.start && a.iv.end < b.iv.end);
      });
      for (size_t k = 1; k < list.size(); ++k) {
        if (list[k].iv.start <= list[k - 1].iv.end) {
          diag("regalloc-interference", -1, -1,
               std::string(reg_class_name(cls)) + " phys " +
                   std::to_string(p) + " shared by live intervals of virtual " +
                   std::to_string(list[k - 1].virt) + " [" +
                   std::to_string(list[k - 1].iv.start) + "," +
                   std::to_string(list[k - 1].iv.end) + "] and " +
                   std::to_string(list[k].virt) + " [" +
                   std::to_string(list[k].iv.start) + "," +
                   std::to_string(list[k].iv.end) + "]");
        }
      }
    }
  }
}

/// The scoreboard slots `op` reads under `cfg`, derived from the operation
/// as replay must see them: a vector consumer of a vector register waits
/// on its chain point when chaining is on, VL/VS reads take their slots.
std::vector<Slot> read_slots(const Operation& op, const SlotLayout& lay,
                             const MachineConfig& cfg) {
  const OpInfo& info = op.info();
  std::vector<Slot> slots;
  for (u8 s = 0; s < info.nsrc; ++s) {
    const Reg& r = op.src[s];
    if (r.cls == RegClass::kVreg && info.flags.vector && cfg.chaining)
      slots.push_back(static_cast<Slot>(lay.off_vchain + static_cast<u32>(r.id)));
    else if (const Slot slot = lay.of(r); slot != kNoSlot)
      slots.push_back(slot);
  }
  if (info.flags.reads_vl) slots.push_back(static_cast<Slot>(lay.slot_vl));
  if (info.flags.reads_vs) slots.push_back(static_cast<Slot>(lay.slot_vs));
  return slots;
}

/// Whether `op` uses only classes `reads` records: its unit class and the
/// register class of each operand.
bool uses_only(const Operation& op, CodeReads reads) {
  auto ok = [&](RegClass c) {
    if (c == RegClass::kSimd) return reads.simd;
    if (c == RegClass::kVreg || c == RegClass::kAcc) return reads.vector;
    return true;
  };
  const OpInfo& info = op.info();
  if (info.fu == FuClass::kSimd && !reads.simd) return false;
  if ((info.fu == FuClass::kVec || info.fu == FuClass::kVecMem) &&
      !reads.vector)
    return false;
  if (!ok(op.dst.cls)) return false;
  for (u8 s = 0; s < info.nsrc; ++s)
    if (!ok(op.src[s].cls)) return false;
  return true;
}

/// The last write to one scoreboard slot within the block being checked.
struct SlotWrite {
  const Operation* by = nullptr;  // null: not written in this block yet
  Cycle ready = 0;       // static cycle from which replay sees the value
  bool dynamic = true;   // a memory or VL-dependent op wrote it
};

/// Record the slot writes of `op`, issued at static `cycle`.
void record_writes(const Operation& op, Cycle cycle, const SlotLayout& lay,
                   std::vector<SlotWrite>& last) {
  const OpInfo& info = op.info();
  const bool dynamic =
      info.flags.mem_load || info.flags.mem_store || info.flags.vector;
  const SlotWrite write{&op, cycle + info.latency, dynamic};
  if (const Slot slot = lay.of(op.dst); slot != kNoSlot) last[slot] = write;
  if (op.dst.cls == RegClass::kVreg)
    last[lay.off_vchain + static_cast<u32>(op.dst.id)] = write;
  // Replay makes VL/VS visible one cycle after their writer issues.
  const Reg special = written_special(op);
  if (special.valid()) {
    const u32 slot = special.id == kSpecialVl ? lay.slot_vl : lay.slot_vs;
    last[slot] = {&op, cycle + 1, false};
  }
}

}  // namespace

DiagReport check_schedule(const ScheduledProgram& sp, const Program* source,
                          const SchedCheckOptions& opts) {
  DiagReport out;
  if (sp.blocks.size() != sp.prog.blocks.size()) {
    out.add(Severity::kError, "sched-shape", opts.unit, -1, -1,
            "block schedule count does not match program block count");
    out.sort();
    return out;
  }
  const EntryVlVs entry = entry_vlvs(sp.prog);
  for (size_t b = 0; b < sp.prog.blocks.size(); ++b) {
    BlockChecker checker(sp, static_cast<i32>(b), entry.vl[b], entry.vs[b],
                         opts, out);
    checker.run();
  }
  if (source) check_regalloc(sp, *source, opts, out);
  out.sort();
  return out;
}

DiagReport check_image(const ScheduledProgram& sp, const ExecImage& image,
                       const SchedCheckOptions& opts) {
  DiagReport out;
  auto diag = [&](i32 b, const std::string& msg) {
    out.add(Severity::kError, "image-mismatch", opts.unit, b, -1, msg);
  };

  if (image.blocks.size() != sp.blocks.size()) {
    diag(-1, "decoded block count does not match the schedule");
    out.sort();
    return out;
  }
  if (image.entry != sp.prog.entry) diag(-1, "entry block differs");
  if (image.region_names != sp.prog.region_names)
    diag(-1, "region names differ");
  // Replay accepts any configuration that agrees on the classes the image
  // records, so the signature is compared through them, and the code may
  // use no other class.
  if (image.signature !=
      schedule_signature(compile_config(sp.cfg, image.reads)))
    diag(-1, "schedule signature differs from the schedule's configuration");

  // The skip rule, re-derived from the schedule: each op's `ready` must be
  // exactly the slots its operation reads, and each slot past `n_check`
  // must have been last written by an earlier word of the same block that
  // is neither a memory op nor VL-dependent and is statically ready by the
  // reading word's cycle.
  const SlotLayout lay(sp.cfg);
  if (image.n_slots != lay.n_slots || image.slot_vl != lay.slot_vl ||
      image.slot_vs != lay.slot_vs)
    diag(-1, "scoreboard layout differs from the configuration's");
  auto unsafe = [&](i32 b, i32 w, size_t k, const std::string& msg) {
    out.add(Severity::kError, "image-unsafe-skip", opts.unit, b, -1,
            "op " + std::to_string(k) + " of word " + std::to_string(w) +
                ": " + msg);
  };
  std::vector<SlotWrite> last(lay.n_slots);

  u32 expect_word = 0;
  for (size_t b = 0; b < image.blocks.size(); ++b) {
    std::fill(last.begin(), last.end(), SlotWrite{});
    const DecodedBlock& db = image.blocks[b];
    const BlockSchedule& bs = sp.blocks[b];
    const BasicBlock& blk = sp.prog.blocks[b];
    const i32 bi = static_cast<i32>(b);
    if (db.word_begin != expect_word) {
      diag(bi, "decoded word ranges are not contiguous");
      break;
    }
    if (db.word_end - db.word_begin != bs.words.size()) {
      diag(bi, "decoded word count does not match the schedule");
      break;
    }
    if (db.fallthrough != blk.fallthrough) diag(bi, "fallthrough differs");
    if (db.region != blk.region) diag(bi, "region differs");

    for (size_t w = 0; w < bs.words.size(); ++w) {
      const DecodedWord& dw = image.words[db.word_begin + w];
      const VliwWord& sw = bs.words[w];
      if (dw.cycle != sw.cycle) {
        diag(bi, "word cycle differs at word " + std::to_string(w));
        continue;
      }
      if (dw.op_end - dw.op_begin != sw.ops.size()) {
        diag(bi, "word op count differs at word " + std::to_string(w));
        continue;
      }
      std::array<i32, 7> need{};
      for (size_t k = 0; k < sw.ops.size(); ++k) {
        const Operation& op = blk.ops[static_cast<size_t>(sw.ops[k])];
        const DecodedOp& dop = image.ops[dw.op_begin + k];
        if (dop.op != op.op || dop.imm != op.imm ||
            dop.target_block != op.target_block) {
          diag(bi, "decoded op " + std::to_string(k) + " of word " +
                       std::to_string(w) + " does not match '" +
                       vuv::to_string(op) + "'");
          continue;
        }
        ++need[static_cast<size_t>(op.info().fu)];
        if (!uses_only(op, image.reads))
          diag(bi, "'" + vuv::to_string(op) +
                       "' uses a class the image was not lowered for");

        const i32 wi = static_cast<i32>(w);
        if (dop.n_ready > dop.ready.size() || dop.n_check > dop.n_ready) {
          unsafe(bi, wi, k, "n_check " + std::to_string(dop.n_check) +
                                " / n_ready " + std::to_string(dop.n_ready) +
                                " out of range");
          continue;
        }
        std::vector<Slot> reads = read_slots(op, lay, sp.cfg);
        std::vector<Slot> baked(dop.ready.begin(),
                                dop.ready.begin() + dop.n_ready);
        std::sort(reads.begin(), reads.end());
        std::sort(baked.begin(), baked.end());
        if (reads != baked) {
          unsafe(bi, wi, k, "ready slots are not the slots '" +
                                vuv::to_string(op) + "' reads");
          continue;
        }
        for (u8 s = dop.n_check; s < dop.n_ready; ++s) {
          const SlotWrite& lw = last[dop.ready[s]];
          std::string why;
          if (lw.by == nullptr)
            why = "is not written earlier in the block";
          else if (lw.dynamic)
            why = "was last written by '" + vuv::to_string(*lw.by) +
                  "', a memory or VL-dependent op";
          else if (lw.ready > sw.cycle)
            why = "is ready at static cycle " + std::to_string(lw.ready) +
                  ", after the word's " + std::to_string(sw.cycle);
          if (!why.empty())
            unsafe(bi, wi, k,
                   "skipped slot " + std::to_string(dop.ready[s]) + " " + why);
        }
      }
      // The word's own writes land after all of its reads.
      for (const i32 oi : sw.ops)
        record_writes(blk.ops[static_cast<size_t>(oi)], sw.cycle, lay, last);
      // Recount per-word FU demand against the baked fu_need table.
      std::array<i32, 7> baked{};
      for (u8 k = 0; k < dw.n_fu; ++k)
        baked[dw.fu_need[k].first] += dw.fu_need[k].second;
      for (int f = 1; f <= 6; ++f)
        if (need[static_cast<size_t>(f)] != baked[static_cast<size_t>(f)])
          diag(bi, "word " + std::to_string(w) + " fu_need[" +
                       std::to_string(f) + "] = " +
                       std::to_string(baked[static_cast<size_t>(f)]) +
                       ", recount = " +
                       std::to_string(need[static_cast<size_t>(f)]));
    }
    expect_word = db.word_end;
  }
  out.sort();
  return out;
}

}  // namespace vuv::lint
