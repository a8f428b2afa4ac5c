#include "verify/irlint.hpp"

#include <algorithm>
#include <deque>
#include <sstream>
#include <vector>

namespace vuv::lint {

namespace {

// ---- flat register space ----------------------------------------------------
// One dense index space over every architectural register the program can
// name: the four allocatable classes at their declared counts, plus the two
// special registers (VL, VS) at the end.
struct RegSpace {
  std::array<i32, 6> off{};
  i32 total = 0;
  i32 n_int = 0;

  explicit RegSpace(const Program& prog) {
    for (int c = 0; c < 6; ++c) {
      off[static_cast<size_t>(c)] = total;
      const auto cls = static_cast<RegClass>(c);
      if (cls == RegClass::kNone) continue;
      if (cls == RegClass::kSpecial)
        total += 2;
      else
        total += prog.reg_count[static_cast<size_t>(c)];
    }
    n_int = prog.reg_count[static_cast<size_t>(RegClass::kInt)];
  }

  i32 index(const Reg& r) const {
    return off[static_cast<size_t>(r.cls)] + r.id;
  }
  i32 vl() const { return off[static_cast<size_t>(RegClass::kSpecial)] + kSpecialVl; }
  i32 vs() const { return off[static_cast<size_t>(RegClass::kSpecial)] + kSpecialVs; }
};

class Bits {
 public:
  void resize(i32 bits) { w_.assign(static_cast<size_t>((bits + 63) / 64), 0); }
  void set(i32 i) { w_[static_cast<size_t>(i >> 6)] |= 1ULL << (i & 63); }
  void reset(i32 i) { w_[static_cast<size_t>(i >> 6)] &= ~(1ULL << (i & 63)); }
  bool test(i32 i) const {
    return (w_[static_cast<size_t>(i >> 6)] >> (i & 63)) & 1;
  }
  bool and_with(const Bits& o) {
    bool changed = false;
    for (size_t k = 0; k < w_.size(); ++k) {
      const u64 n = w_[k] & o.w_[k];
      changed |= n != w_[k];
      w_[k] = n;
    }
    return changed;
  }
  bool or_with(const Bits& o) {
    bool changed = false;
    for (size_t k = 0; k < w_.size(); ++k) {
      const u64 n = w_[k] | o.w_[k];
      changed |= n != w_[k];
      w_[k] = n;
    }
    return changed;
  }
  bool operator==(const Bits& o) const { return w_ == o.w_; }

 private:
  std::vector<u64> w_;
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

/// Access width in bytes of a scalar/µSIMD memory op, 0 for non-memory and
/// vector-memory ops.
i32 scalar_mem_bytes(Opcode op) {
  switch (op) {
    case Opcode::LDB:
    case Opcode::LDBU:
    case Opcode::STB: return 1;
    case Opcode::LDH:
    case Opcode::LDHU:
    case Opcode::STH: return 2;
    case Opcode::LDW:
    case Opcode::STW: return 4;
    case Opcode::LDD:
    case Opcode::STD:
    case Opcode::LDQS:
    case Opcode::STQS: return 8;
    default: return 0;
  }
}

// ---- sparse constant map ----------------------------------------------------
// Integer-register constants that survive a block boundary, keyed by int
// register id and sorted. Bounded: a pathological straight-line program
// cannot accumulate unbounded entry constants — past the cap the lowest
// register ids win (deterministic, and dropping a constant only loses
// precision, never soundness).
struct ConstMap {
  static constexpr size_t kCap = 512;
  std::vector<std::pair<i32, i64>> kv;  // sorted by slot

  bool lookup(i32 slot, i64* v) const {
    const auto it = std::lower_bound(
        kv.begin(), kv.end(), slot,
        [](const std::pair<i32, i64>& e, i32 s) { return e.first < s; });
    if (it == kv.end() || it->first != slot) return false;
    *v = it->second;
    return true;
  }

  void set(i32 slot, i64 v) {
    const auto it = std::lower_bound(
        kv.begin(), kv.end(), slot,
        [](const std::pair<i32, i64>& e, i32 s) { return e.first < s; });
    if (it != kv.end() && it->first == slot)
      it->second = v;
    else
      kv.insert(it, {slot, v});
  }

  void erase(i32 slot) {
    const auto it = std::lower_bound(
        kv.begin(), kv.end(), slot,
        [](const std::pair<i32, i64>& e, i32 s) { return e.first < s; });
    if (it != kv.end() && it->first == slot) kv.erase(it);
  }

  void truncate() {
    if (kv.size() > kCap) kv.resize(kCap);
  }

  /// Keep only entries present with the same value in `o`.
  bool meet(const ConstMap& o) {
    size_t w = 0, j = 0;
    bool changed = false;
    for (size_t i = 0; i < kv.size(); ++i) {
      while (j < o.kv.size() && o.kv[j].first < kv[i].first) ++j;
      if (j < o.kv.size() && o.kv[j].first == kv[i].first &&
          o.kv[j].second == kv[i].second)
        kv[w++] = kv[i];
      else
        changed = true;
    }
    kv.resize(w);
    return changed;
  }
};

// ---- forward dataflow state -------------------------------------------------
// Cross-block state is kept only for "global" registers — those upward-
// exposed (read before any write) in some block, the only ones that can be
// live across a block boundary. Everything block-local lives in epoch-
// versioned scratch inside the Linter, so state size is O(globals), not
// O(declared registers) — the big generated apps declare hundreds of
// thousands of virtual registers but only a few thousand cross blocks.
//
// Tracked per program point:
//   - definitely-initialized globals (meet = intersection),
//   - maybe-initialized globals (meet = union),
//   - whether VL / VS have definitely been set by the program,
//   - constants: int-register map (ConstMap) plus VL and VS fields.
// Architectural zero-initialization of the register files is deliberately
// NOT modeled: reading a never-written register is flagged even though the
// machine would deliver zero.
struct State {
  bool visited = false;
  Bits def_init, may_init;  // over the compact global space
  ConstMap consts;          // global int registers only
  u8 vlk = 0, vsk = 0;      // VL / VS constant known
  i64 vlc = 0, vsc = 0;
  bool vl_set = false, vs_set = false;

  void init(i32 n_globals) {
    visited = true;
    def_init.resize(n_globals);
    may_init.resize(n_globals);
  }
};

bool meet_into(State& dst, const State& src) {
  if (!dst.visited) {
    dst = src;
    return true;
  }
  bool changed = false;
  changed |= dst.def_init.and_with(src.def_init);
  changed |= dst.may_init.or_with(src.may_init);
  if (dst.vl_set && !src.vl_set) {
    dst.vl_set = false;
    changed = true;
  }
  if (dst.vs_set && !src.vs_set) {
    dst.vs_set = false;
    changed = true;
  }
  if (dst.vlk && (!src.vlk || src.vlc != dst.vlc)) {
    dst.vlk = 0;
    changed = true;
  }
  if (dst.vsk && (!src.vsk || src.vsc != dst.vsc)) {
    dst.vsk = 0;
    changed = true;
  }
  changed |= dst.consts.meet(src.consts);
  return changed;
}

class Linter {
 public:
  Linter(const Program& prog, const LintOptions& opts, LintStats* stats)
      : prog_(prog), opts_(opts), stats_(stats), rs_(prog) {
    find_globals();
    cepoch_.assign(static_cast<size_t>(rs_.n_int), 0);
    cknown_.assign(static_cast<size_t>(rs_.n_int), 0);
    cval_.assign(static_cast<size_t>(rs_.n_int), 0);
    lepoch_.assign(static_cast<size_t>(rs_.total), 0);
    lbit_.assign(static_cast<size_t>(rs_.total), 0);
  }

  void run(DiagReport& out) {
    compute_reachable(out);
    forward_fixpoint();
    for (i32 b = 0; b < nblocks(); ++b) {
      if (!reachable_[static_cast<size_t>(b)]) continue;
      report_block(b, out);
    }
    dead_write_pass(out);
  }

 private:
  i32 nblocks() const { return static_cast<i32>(prog_.blocks.size()); }

  std::vector<i32> successors(const BasicBlock& blk) const {
    std::vector<i32> succ;
    if (blk.fallthrough >= 0) succ.push_back(blk.fallthrough);
    if (const Operation* t = blk.terminator();
        t && (t->info().flags.branch || t->info().flags.jump))
      succ.push_back(t->target_block);
    return succ;
  }

  /// A register is "global" iff some block reads it before writing it (an
  /// upward-exposed use): only those can be live into a block, so only
  /// those need cross-block dataflow. VL and VS are always global.
  void find_globals() {
    gidx_.assign(static_cast<size_t>(rs_.total), -1);
    std::vector<u32> wr(static_cast<size_t>(rs_.total), 0);
    u32 epoch = 0;
    auto mark = [&](i32 f) {
      if (wr[static_cast<size_t>(f)] != epoch && gidx_[static_cast<size_t>(f)] < 0)
        gidx_[static_cast<size_t>(f)] = 0;  // provisional: is-global flag
    };
    for (const BasicBlock& blk : prog_.blocks) {
      ++epoch;
      for (const Operation& op : blk.ops) {
        const OpInfo& info = op.info();
        for (u8 s = 0; s < info.nsrc; ++s) {
          const Reg r = op.src[s];
          if (r.valid() && r.cls != RegClass::kSpecial) mark(rs_.index(r));
        }
        if (info.flags.reads_vl) mark(rs_.vl());
        if (info.flags.reads_vs) mark(rs_.vs());
        if (op.dst.valid() && op.dst.cls != RegClass::kSpecial)
          wr[static_cast<size_t>(rs_.index(op.dst))] = epoch;
        if (const Reg sp = written_special(op); sp.valid())
          wr[static_cast<size_t>(rs_.index(sp))] = epoch;
      }
    }
    gidx_[static_cast<size_t>(rs_.vl())] = 0;
    gidx_[static_cast<size_t>(rs_.vs())] = 0;
    n_globals_ = 0;
    for (i32 f = 0; f < rs_.total; ++f)
      if (gidx_[static_cast<size_t>(f)] == 0) gidx_[static_cast<size_t>(f)] = n_globals_++;
  }

  void compute_reachable(DiagReport& out) {
    reachable_.assign(static_cast<size_t>(nblocks()), false);
    std::deque<i32> work{prog_.entry};
    reachable_[static_cast<size_t>(prog_.entry)] = true;
    while (!work.empty()) {
      const i32 b = work.front();
      work.pop_front();
      for (const i32 s : successors(prog_.blocks[static_cast<size_t>(b)])) {
        if (!reachable_[static_cast<size_t>(s)]) {
          reachable_[static_cast<size_t>(s)] = true;
          work.push_back(s);
        }
      }
    }
    for (i32 b = 0; b < nblocks(); ++b)
      if (!reachable_[static_cast<size_t>(b)])
        out.add(Severity::kWarning, "unreachable-block", opts_.unit, b, -1,
                "block is unreachable from entry");
  }

  // ---- constant lattice helpers ------------------------------------------
  // Block-local constant values live in epoch-versioned scratch over the
  // full int-register space; values inherited from the block's entry state
  // are consulted only for slots untouched this walk.
  bool known_int(const State& st, const Reg& r, i64* v) const {
    if (r.cls != RegClass::kInt) return false;
    const size_t id = static_cast<size_t>(r.id);
    if (cepoch_[id] == epoch_) {
      if (!cknown_[id]) return false;
      *v = cval_[id];
      return true;
    }
    return st.consts.lookup(r.id, v);
  }

  void set_int(i32 id, bool known, i64 v) {
    const size_t i = static_cast<size_t>(id);
    if (cepoch_[i] != epoch_) {
      cepoch_[i] = epoch_;
      touched_.push_back(id);
    }
    cknown_[i] = known ? 1 : 0;
    cval_[i] = v;
  }

  /// Fold the integer result of `op` if its value is statically known.
  /// Arithmetic is wrapping u64, matching the reference interpreter;
  /// anything not explicitly folded here drops the destination to unknown.
  bool fold(const State& st, const Operation& op, i64* v) const {
    i64 a = 0, b = 0;
    auto src_known = [&](int i, i64* val) {
      return known_int(st, op.src[static_cast<size_t>(i)], val);
    };
    switch (op.op) {
      case Opcode::MOVI: *v = op.imm; return true;
      case Opcode::MOV:
        return src_known(0, v);
      case Opcode::ADDI:
        if (!src_known(0, &a)) return false;
        *v = static_cast<i64>(static_cast<u64>(a) + static_cast<u64>(op.imm));
        return true;
      case Opcode::ADD:
        if (!src_known(0, &a) || !src_known(1, &b)) return false;
        *v = static_cast<i64>(static_cast<u64>(a) + static_cast<u64>(b));
        return true;
      case Opcode::SUB:
        if (!src_known(0, &a) || !src_known(1, &b)) return false;
        *v = static_cast<i64>(static_cast<u64>(a) - static_cast<u64>(b));
        return true;
      case Opcode::MUL:
        if (!src_known(0, &a) || !src_known(1, &b)) return false;
        *v = static_cast<i64>(static_cast<u64>(a) * static_cast<u64>(b));
        return true;
      case Opcode::SLLI:
        if (!src_known(0, &a)) return false;
        *v = (op.imm >= 64 || op.imm < 0)
                 ? 0
                 : static_cast<i64>(static_cast<u64>(a) << op.imm);
        return true;
      default: return false;
    }
  }

  // ---- transfer function --------------------------------------------------
  // `out` == nullptr during fixpoint iteration (no diagnostics); during the
  // reporting pass diagnostics are emitted and the state is healed after
  // each finding so one root cause produces one diagnostic, not a cascade.
  // Initialization checks apply only to global registers: a local register
  // is by construction written earlier in its own block before every read.
  void transfer(State& st, const Operation& op, i32 block, i32 opi,
                DiagReport* out) {
    const OpInfo& info = op.info();

    // Reads.
    for (u8 s = 0; s < info.nsrc; ++s) {
      const Reg r = op.src[s];
      if (!r.valid() || r.cls == RegClass::kSpecial) continue;
      const i32 g = gidx_[static_cast<size_t>(rs_.index(r))];
      if (g < 0) continue;  // block-local: provably written above
      // The same register read twice by one op reports once.
      bool seen_before = false;
      for (u8 p = 0; p < s; ++p) seen_before |= op.src[p] == r;
      if (out && !seen_before) {
        if (!st.may_init.test(g)) {
          out->add(Severity::kError, "uninit-read", opts_.unit, block, opi,
                   std::string("read of ") + vuv::to_string(r) +
                       " which no path ever writes");
          st.may_init.set(g);
          st.def_init.set(g);
        } else if (!st.def_init.test(g)) {
          out->add(Severity::kWarning, "maybe-uninit-read", opts_.unit, block,
                   opi,
                   std::string("read of ") + vuv::to_string(r) +
                       " which only some paths write");
          st.def_init.set(g);
        }
      }
    }

    if (out && info.flags.reads_vl && !st.vl_set) {
      out->add(Severity::kWarning, "vl-unset", opts_.unit, block, opi,
               std::string(info.name) +
                   " depends on VL before any SETVL (architectural default "
                   "VL=16 applies)");
      st.vl_set = true;
    }
    if (out && info.flags.reads_vs && !st.vs_set) {
      out->add(Severity::kWarning, "vs-unset", opts_.unit, block, opi,
               std::string(info.name) +
                   " depends on VS before any SETVS (architectural default "
                   "VS=8 applies)");
      st.vs_set = true;
    }

    if (out) check_memory(st, op, block, opi, *out);

    // Special-register writes (with provable-range and redundancy rules).
    switch (op.op) {
      case Opcode::SETVLI:
        if (out && st.vlk && st.vlc == op.imm)
          out->add(Severity::kWarning, "redundant-setvl", opts_.unit, block,
                   opi, "SETVLI " + std::to_string(op.imm) +
                            " but VL already holds that value");
        st.vl_set = true;
        st.vlk = 1;
        st.vlc = op.imm;
        break;
      case Opcode::SETVL: {
        i64 v = 0;
        st.vl_set = true;
        if (known_int(st, op.src[0], &v)) {
          if (v < 1 || v > kMaxVl) {
            if (out)
              out->add(Severity::kError, "vl-range", opts_.unit, block, opi,
                       "SETVL from a value provably out of [1,16]: " +
                           std::to_string(v));
            st.vlk = 0;
          } else {
            st.vlk = 1;
            st.vlc = v;
          }
        } else {
          st.vlk = 0;
        }
        break;
      }
      case Opcode::SETVSI:
        if (out && st.vsk && st.vsc == op.imm)
          out->add(Severity::kWarning, "redundant-setvs", opts_.unit, block,
                   opi, "SETVSI " + std::to_string(op.imm) +
                            " but VS already holds that value");
        st.vs_set = true;
        st.vsk = 1;
        st.vsc = op.imm;
        break;
      case Opcode::SETVS: {
        i64 v = 0;
        st.vs_set = true;
        if (known_int(st, op.src[0], &v)) {
          st.vsk = 1;
          st.vsc = v;
        } else {
          st.vsk = 0;
        }
        break;
      }
      default: break;
    }

    // Destination write. Any write fully defines the register: vector
    // destinations zero their lanes past VL on writeback (fresh-writeback
    // zeroing), so a VLD/V_* at a short VL still defines all 16 elements.
    if (op.dst.valid() && op.dst.cls != RegClass::kSpecial) {
      if (const i32 g = gidx_[static_cast<size_t>(rs_.index(op.dst))]; g >= 0) {
        st.def_init.set(g);
        st.may_init.set(g);
      }
      if (op.dst.cls == RegClass::kInt) {
        i64 v = 0;
        const bool k = fold(st, op, &v);
        set_int(op.dst.id, k, v);
      }
    }
  }

  void check_memory(State& st, const Operation& op, i32 block, i32 opi,
                    DiagReport& out) {
    const OpInfo& info = op.info();
    const bool is_mem = info.flags.mem_load || info.flags.mem_store;
    if (!is_mem) return;
    const i64 extent = static_cast<i64>(opts_.mem_extent);

    if (info.fu == FuClass::kVecMem) {  // VLD / VST
      if (stats_) ++stats_->vector_mem_ops;
      const Reg base = info.flags.mem_load ? op.src[0] : op.src[1];
      i64 baseval = 0;
      if (!known_int(st, base, &baseval)) return;
      if (!st.vsk) return;  // footprint unknowable without the stride
      const i64 vs = st.vsc;
      if (stats_) ++stats_->bounds_checked;

      if (vs == 0)
        out.add(Severity::kWarning, "vs-zero", opts_.unit, block, opi,
                std::string(info.name) + " with a provably zero stride");

      const bool vl_known = st.vlk && st.vlc >= 1 && st.vlc <= kMaxVl;
      const i64 addr = baseval + op.imm;
      auto span = [&](i64 n, i64* lo, i64* hi) {
        const i64 last = (n - 1) * vs;
        *lo = addr + std::min<i64>(0, last);
        *hi = addr + std::max<i64>(0, last) + 8;
      };
      i64 lo = 0, hi = 0;
      span(vl_known ? st.vlc : kMaxVl, &lo, &hi);
      if (stats_) stats_->worst_footprint = std::max(stats_->worst_footprint, hi);
      if (extent <= 0) return;
      if (vl_known) {
        if (lo < 0 || hi > extent)
          out.add(Severity::kError, "vec-oob", opts_.unit, block, opi,
                  std::string(info.name) + " touches [" + std::to_string(lo) +
                      "," + std::to_string(hi) + ") outside workspace [0," +
                      std::to_string(extent) + ")");
      } else {
        // VL unknown: even a single element out of bounds is definite.
        i64 lo1 = 0, hi1 = 0;
        span(1, &lo1, &hi1);
        if (lo1 < 0 || hi1 > extent)
          out.add(Severity::kError, "vec-oob", opts_.unit, block, opi,
                  std::string(info.name) + " first element at [" +
                      std::to_string(lo1) + "," + std::to_string(hi1) +
                      ") outside workspace [0," + std::to_string(extent) + ")");
        else if (lo < 0 || hi > extent)
          out.add(Severity::kWarning, "vec-oob-worst-case", opts_.unit, block,
                  opi,
                  std::string(info.name) + " worst-case (VL=16) span [" +
                      std::to_string(lo) + "," + std::to_string(hi) +
                      ") exceeds workspace [0," + std::to_string(extent) + ")");
      }
      return;
    }

    // Scalar / µSIMD access through L1.
    if (extent <= 0) return;
    const i32 w = scalar_mem_bytes(op.op);
    if (w == 0) return;
    const Reg base = info.flags.mem_load ? op.src[0] : op.src[1];
    i64 baseval = 0;
    if (!known_int(st, base, &baseval)) return;
    const i64 addr = baseval + op.imm;
    if (addr < 0 || addr + w > extent)
      out.add(Severity::kError, "mem-oob", opts_.unit, block, opi,
              std::string(info.name) + " accesses [" + std::to_string(addr) +
                  "," + std::to_string(addr + w) + ") outside workspace [0," +
                  std::to_string(extent) + ")");
  }

  /// Walk one block's ops over `st` (fresh scratch epoch). With `out` set,
  /// emit diagnostics; with `finalize` set, fold the scratch constant
  /// updates for global int registers back into st.consts for the meet.
  void walk_block(State& st, i32 b, DiagReport* out, bool finalize) {
    ++epoch_;
    touched_.clear();
    const BasicBlock& blk = prog_.blocks[static_cast<size_t>(b)];
    for (size_t i = 0; i < blk.ops.size(); ++i)
      transfer(st, blk.ops[i], b, static_cast<i32>(i), out);
    if (!finalize) return;
    for (const i32 id : touched_) {
      const i32 f = rs_.off[static_cast<size_t>(RegClass::kInt)] + id;
      if (gidx_[static_cast<size_t>(f)] < 0) continue;  // local: dies here
      if (cknown_[static_cast<size_t>(id)])
        st.consts.set(id, cval_[static_cast<size_t>(id)]);
      else
        st.consts.erase(id);
    }
    st.consts.truncate();
  }

  void forward_fixpoint() {
    in_.assign(static_cast<size_t>(nblocks()), State{});
    in_[static_cast<size_t>(prog_.entry)].init(n_globals_);
    std::vector<u8> dirty(static_cast<size_t>(nblocks()), 0);
    dirty[static_cast<size_t>(prog_.entry)] = 1;
    bool changed = true;
    while (changed) {
      changed = false;
      for (i32 b = 0; b < nblocks(); ++b) {
        if (!dirty[static_cast<size_t>(b)]) continue;
        dirty[static_cast<size_t>(b)] = 0;
        State out_state = in_[static_cast<size_t>(b)];
        walk_block(out_state, b, nullptr, /*finalize=*/true);
        for (const i32 s : successors(prog_.blocks[static_cast<size_t>(b)]))
          if (meet_into(in_[static_cast<size_t>(s)], out_state)) {
            dirty[static_cast<size_t>(s)] = 1;
            changed = true;
          }
      }
    }
  }

  void report_block(i32 b, DiagReport& out) {
    State st = in_[static_cast<size_t>(b)];
    if (!st.visited) return;  // defensive: reachable implies visited
    walk_block(st, b, &out, /*finalize=*/false);
  }

  // ---- dead-write detection ----------------------------------------------
  // Classic backward liveness (VL and VS included as ordinary slots): a
  // write whose target is not live-out of the defining op is never read on
  // ANY path before being overwritten or the program halting. Cross-block
  // sets cover globals only; block-locals are resolved in the final
  // backward walk through epoch-versioned scratch (a local not read later
  // in its own block is dead by definition).
  void dead_write_pass(DiagReport& out) {
    const i32 n = nblocks();
    std::vector<Bits> use(static_cast<size_t>(n)), def(static_cast<size_t>(n)),
        live_in(static_cast<size_t>(n)), live_out(static_cast<size_t>(n));

    auto for_reads = [&](const Operation& op, auto&& f) {
      const OpInfo& info = op.info();
      for (u8 s = 0; s < info.nsrc; ++s)
        if (op.src[s].valid() && op.src[s].cls != RegClass::kSpecial)
          f(rs_.index(op.src[s]));
      if (info.flags.reads_vl) f(rs_.vl());
      if (info.flags.reads_vs) f(rs_.vs());
    };
    auto for_writes = [&](const Operation& op, auto&& f) {
      if (op.dst.valid() && op.dst.cls != RegClass::kSpecial)
        f(rs_.index(op.dst), false);
      if (const Reg sp = written_special(op); sp.valid())
        f(rs_.index(sp), true);
    };

    for (i32 b = 0; b < n; ++b) {
      use[static_cast<size_t>(b)].resize(n_globals_);
      def[static_cast<size_t>(b)].resize(n_globals_);
      live_in[static_cast<size_t>(b)].resize(n_globals_);
      live_out[static_cast<size_t>(b)].resize(n_globals_);
      for (const Operation& op : prog_.blocks[static_cast<size_t>(b)].ops) {
        for_reads(op, [&](i32 f) {
          const i32 g = gidx_[static_cast<size_t>(f)];
          if (g >= 0 && !def[static_cast<size_t>(b)].test(g))
            use[static_cast<size_t>(b)].set(g);
        });
        for_writes(op, [&](i32 f, bool) {
          const i32 g = gidx_[static_cast<size_t>(f)];
          if (g >= 0) def[static_cast<size_t>(b)].set(g);
        });
      }
    }

    std::vector<u8> dirty(static_cast<size_t>(n), 1);
    bool changed = true;
    while (changed) {
      changed = false;
      for (i32 b = n - 1; b >= 0; --b) {
        if (!dirty[static_cast<size_t>(b)]) continue;
        dirty[static_cast<size_t>(b)] = 0;
        Bits out_bits;
        out_bits.resize(n_globals_);
        for (const i32 s : successors(prog_.blocks[static_cast<size_t>(b)]))
          out_bits.or_with(live_in[static_cast<size_t>(s)]);
        // in = use | (out & ~def).
        Bits in_bits = out_bits;
        for (i32 g = 0; g < n_globals_; ++g) {
          if (def[static_cast<size_t>(b)].test(g)) in_bits.reset(g);
          if (use[static_cast<size_t>(b)].test(g)) in_bits.set(g);
        }
        if (!(out_bits == live_out[static_cast<size_t>(b)]) ||
            !(in_bits == live_in[static_cast<size_t>(b)])) {
          live_out[static_cast<size_t>(b)] = out_bits;
          live_in[static_cast<size_t>(b)] = in_bits;
          // Liveness flows backward: re-examine predecessors. Precomputing
          // the predecessor lists just for this would cost more than the
          // all-dirty sweep it saves, so mark everything.
          std::fill(dirty.begin(), dirty.end(), u8{1});
          changed = true;
        }
      }
    }

    for (i32 b = 0; b < n; ++b) {
      if (!reachable_[static_cast<size_t>(b)]) continue;
      const BasicBlock& blk = prog_.blocks[static_cast<size_t>(b)];
      Bits live = live_out[static_cast<size_t>(b)];
      ++epoch_;
      auto local_live = [&](i32 f) {
        return lepoch_[static_cast<size_t>(f)] == epoch_ &&
               lbit_[static_cast<size_t>(f)];
      };
      auto set_local = [&](i32 f, u8 v) {
        lepoch_[static_cast<size_t>(f)] = epoch_;
        lbit_[static_cast<size_t>(f)] = v;
      };
      for (i32 i = static_cast<i32>(blk.ops.size()) - 1; i >= 0; --i) {
        const Operation& op = blk.ops[static_cast<size_t>(i)];
        for_writes(op, [&](i32 f, bool special) {
          const i32 g = gidx_[static_cast<size_t>(f)];
          const bool is_live = g >= 0 ? live.test(g) : local_live(f);
          if (!is_live) {
            if (special) {
              const bool is_vl = f == rs_.vl();
              out.add(Severity::kWarning, is_vl ? "dead-setvl" : "dead-setvs",
                      opts_.unit, b, i,
                      std::string(op.info().name) + " result (" +
                          (is_vl ? "VL" : "VS") + ") is never read");
            } else {
              out.add(Severity::kWarning, "dead-write", opts_.unit, b, i,
                      std::string("result of ") + op.info().name + " into " +
                          vuv::to_string(op.dst) + " is never read");
            }
          }
        });
        for_writes(op, [&](i32 f, bool) {
          const i32 g = gidx_[static_cast<size_t>(f)];
          if (g >= 0)
            live.reset(g);
          else
            set_local(f, 0);
        });
        for_reads(op, [&](i32 f) {
          const i32 g = gidx_[static_cast<size_t>(f)];
          if (g >= 0)
            live.set(g);
          else
            set_local(f, 1);
        });
      }
    }
  }

  const Program& prog_;
  const LintOptions& opts_;
  LintStats* stats_;
  RegSpace rs_;
  std::vector<i32> gidx_;  // full flat index -> compact global index, or -1
  i32 n_globals_ = 0;
  std::vector<bool> reachable_;
  std::vector<State> in_;
  // Epoch-versioned scratch: constants over the int space, local liveness
  // over the full space. Reset is O(1) — bump the epoch.
  u32 epoch_ = 0;
  std::vector<u32> cepoch_;
  std::vector<u8> cknown_;
  std::vector<i64> cval_;
  std::vector<i32> touched_;  // int ids written this walk
  std::vector<u32> lepoch_;
  std::vector<u8> lbit_;
};

void check_operand(const Program& prog, const Operation& op, const Reg& r,
                   RegClass expect, const char* what, i32 block, i32 opi,
                   const std::string& unit, DiagReport& out) {
  auto msg = [&](const std::string& m) {
    return "op '" + vuv::to_string(op) + "': " + m;
  };
  if (expect == RegClass::kNone) {
    if (r.valid())
      out.add(Severity::kError, "operand-class", unit, block, opi,
              msg(std::string(what) + " should be absent"));
    return;
  }
  if (r.cls != expect) {
    out.add(Severity::kError, "operand-class", unit, block, opi,
            msg(std::string(what) + " has wrong register class"));
    return;
  }
  if (r.id < 0 || r.id >= prog.reg_count[static_cast<size_t>(r.cls)])
    out.add(Severity::kError, "operand-range", unit, block, opi,
            msg(std::string(what) + " register id out of range"));
}

}  // namespace

bool lint_structure(const Program& prog, const std::string& unit,
                    DiagReport& out) {
  const i64 before = out.errors();
  if (prog.blocks.empty()) {
    out.add(Severity::kError, "empty-program", unit, -1, -1,
            "program has no blocks");
    return false;
  }
  const i32 nblocks = static_cast<i32>(prog.blocks.size());
  if (prog.entry < 0 || prog.entry >= nblocks) {
    out.add(Severity::kError, "bad-entry", unit, -1, -1,
            "entry block out of range");
    return false;
  }

  bool has_halt = false;
  for (i32 b = 0; b < nblocks; ++b) {
    const BasicBlock& blk = prog.blocks[static_cast<size_t>(b)];
    for (size_t i = 0; i < blk.ops.size(); ++i) {
      const Operation& op = blk.ops[i];
      const OpInfo& info = op.info();
      const i32 opi = static_cast<i32>(i);

      check_operand(prog, op, op.dst, info.dst, "dst", b, opi, unit, out);
      for (u8 s = 0; s < 3; ++s)
        check_operand(prog, op, op.src[s],
                      s < info.nsrc ? info.src[s] : RegClass::kNone, "src", b,
                      opi, unit, out);

      const bool is_term =
          info.flags.branch || info.flags.jump || info.flags.halt;
      if (is_term && i + 1 != blk.ops.size())
        out.add(Severity::kError, "mid-block-terminator", unit, b, opi,
                "control transfer is not the last operation");
      if (info.flags.branch || info.flags.jump) {
        if (op.target_block < 0 || op.target_block >= nblocks)
          out.add(Severity::kError, "bad-branch-target", unit, b, opi,
                  "bad branch target");
      }
      if (info.flags.halt) has_halt = true;

      if (op.op == Opcode::PEXTRH || op.op == Opcode::PINSRH) {
        if (op.imm < 0 || op.imm > 3)
          out.add(Severity::kError, "imm-range", unit, b, opi,
                  "lane immediate out of range [0,3]");
      }
      if (op.op == Opcode::SETVLI && (op.imm < 1 || op.imm > kMaxVl))
        out.add(Severity::kError, "imm-range", unit, b, opi,
                "vector length immediate out of range [1,16]");
    }

    const Operation* term = blk.terminator();
    const bool needs_fall = term == nullptr || term->info().flags.branch;
    if (needs_fall && (blk.fallthrough < 0 || blk.fallthrough >= nblocks))
      out.add(Severity::kError, "bad-fallthrough", unit, b, -1,
              "falls through to an invalid block");
  }

  if (!has_halt)
    out.add(Severity::kError, "no-halt", unit, -1, -1, "program has no HALT");
  return out.errors() == before;
}

DiagReport lint_program(const Program& prog, const LintOptions& opts,
                        LintStats* stats) {
  DiagReport out;
  if (lint_structure(prog, opts.unit, out)) {
    Linter linter(prog, opts, stats);
    linter.run(out);
  }
  out.sort();
  return out;
}

}  // namespace vuv::lint
