#include "cells.hpp"

#include <optional>

#include "apps/apps.hpp"
#include "sched/regalloc.hpp"

namespace vuvbench {

namespace {

/// Get-or-make under `mu`: the first requester of `key` runs `make` outside
/// the lock; later requesters wait for its result (CompileCache's scheme).
template <typename T, typename Make>
std::shared_ptr<const T> once(
    std::mutex& mu,
    std::map<std::string, std::shared_future<std::shared_ptr<const T>>>& m,
    const std::string& key, Make&& make) {
  std::promise<std::shared_ptr<const T>> promise;
  std::shared_future<std::shared_ptr<const T>> entry;
  bool owner = false;
  {
    std::lock_guard<std::mutex> lock(mu);
    const auto it = m.find(key);
    if (it != m.end()) {
      entry = it->second;
    } else {
      entry = promise.get_future().share();
      m.emplace(key, entry);
      owner = true;
    }
  }
  if (owner) {
    try {
      promise.set_value(make());
    } catch (...) {
      promise.set_exception(std::current_exception());
    }
  }
  return entry.get();
}

/// Flip the first byte the simulation wrote whose corruption
/// BuiltApp::verify reports (scratch buffers are not verified); returns its
/// address, or -1 when no written byte is checked.
i64 corrupt_output_byte(vuv::BuiltApp& app, const vuv::MainMemory& before) {
  vuv::MainMemory& mem = app.ws->mem();
  const std::span<u8> now = mem.bytes(0, mem.size());
  const std::span<const u8> was = before.bytes(0, before.size());
  for (size_t a = 0; a < now.size(); ++a) {
    if (now[a] == was[a]) continue;
    now[a] ^= 0xff;
    if (!app.verify(*app.ws).empty()) return static_cast<i64>(a);
    now[a] ^= 0xff;
  }
  return -1;
}

std::string unit_name(vuv::App app, vuv::Variant v) {
  std::string unit = vuv::app_name(app);
  unit += '|';
  unit += vuv::variant_name(v);
  return unit;
}

}  // namespace

std::shared_ptr<const vuv::Program> TracedCells::built(vuv::App app,
                                                       vuv::Variant v,
                                                       SpanLog& log) {
  const std::string unit = unit_name(app, v);
  return once<vuv::Program>(mu_, built_, unit, [&] {
    Scope s(log, "apps.build", unit);
    vuv::BuiltApp b = vuv::build_app(app, v);
    return std::make_shared<const vuv::Program>(std::move(b.program));
  });
}

std::shared_ptr<const TracedCells::Compiled> TracedCells::compiled(
    const vuv::SweepCell& cell, const vuv::MachineConfig& cfg, SpanLog& log) {
  std::string key = unit_name(cell.app, cell.variant);
  key += '|';
  key += vuv::compile_signature(cfg);
  return once<Compiled>(mu_, compiled_, key, [&] {
    // As CompileCache: compile against realistic memory (the signature
    // guarantees the schedule is the same) from a copy of the unit's program.
    vuv::MachineConfig ccfg = cfg;
    ccfg.mem.perfect = false;
    vuv::Program prog = *built(cell.app, cell.variant, log);
    {
      Scope s(log, "ir.verify");
      vuv::verify(prog);
    }
    {
      Scope s(log, "sched.regalloc");
      vuv::allocate_registers(prog, ccfg);
    }
    auto c = std::make_shared<Compiled>();
    {
      Scope s(log, "sched.schedule");
      c->sp = vuv::schedule_program(std::move(prog), ccfg);
    }
    {
      Scope s(log, "sim.lower");
      c->image = vuv::lower_image(c->sp, ccfg);
    }
    return std::shared_ptr<const Compiled>(std::move(c));
  });
}

TracedCells::Outcome TracedCells::run(const vuv::SweepCell& cell, SpanLog& log,
                                      bool corrupt_output) {
  const Clock::time_point t0 = Clock::now();
  Scope cell_span(log, "cell", cell.key());
  vuv::MachineConfig cfg = cell.cfg;
  cfg.mem.perfect = cell.perfect;
  std::shared_ptr<const Compiled> cp;
  {
    Scope s(log, "runner.compile_cache");
    cp = compiled(cell, cfg, log);
  }
  std::optional<vuv::BuiltApp> app;
  {
    Scope s(log, "apps.rebuild");
    app.emplace(vuv::build_app(cell.app, cell.variant));
  }
  std::optional<vuv::Cpu> cpu;
  {
    Scope s(log, "sim.cpu_init");
    cpu.emplace(cp->sp, cfg, app->ws->mem(), cp->image);
    cpu->warm(0, app->ws->used());
  }
  std::optional<vuv::MainMemory> before;
  if (corrupt_output) before.emplace(app->ws->mem());
  Outcome out;
  {
    Scope s(log, "sim.run");
    out.sim = cpu->run();
  }
  if (corrupt_output && corrupt_output_byte(*app, *before) < 0)
    out.verify_error = "self-test: no verified output byte to corrupt";
  {
    Scope s(log, "apps.verify");
    const std::string err = app->verify(*app->ws);
    if (out.verify_error.empty()) out.verify_error = err;
  }
  out.service_ms = ms_between(t0, Clock::now());
  return out;
}

CompileTotals TracedCells::totals() const {
  std::lock_guard<std::mutex> lock(mu_);
  CompileTotals t;
  for (const auto& [key, entry] : compiled_) {
    const std::shared_ptr<const Compiled> c = entry.get();
    t.add(c->sp, c->image);
  }
  return t;
}

void CompileTotals::add(const vuv::ScheduledProgram& sp,
                        const vuv::ExecImage& image) {
  ++compiles;
  static_ops += sp.prog.static_ops();
  static_words += sp.static_words();
  image_bytes += static_cast<double>(
      image.ops.size() * sizeof(vuv::DecodedOp) +
      image.words.size() * sizeof(vuv::DecodedWord) +
      image.blocks.size() * sizeof(vuv::DecodedBlock));
  distinct.insert(program_hash(sp));
}

void CompileTotals::report(std::map<std::string, double>& out) const {
  out["sched.compiles"] = static_cast<double>(compiles);
  out["sched.static_ops"] = static_cast<double>(static_ops);
  out["sched.static_words"] = static_cast<double>(static_words);
  out["sim.image_mb"] = image_bytes / (1024.0 * 1024.0);
  out["runner.compile_useful_ratio"] =
      compiles ? static_cast<double>(distinct.size()) / static_cast<double>(compiles)
               : 0.0;
}

u64 program_hash(const vuv::ScheduledProgram& sp) {
  u64 h = 1469598103934665603ULL;
  auto add = [&h](i64 v) {
    for (int i = 0; i < 8; ++i) {
      h ^= static_cast<u64>(v >> (8 * i)) & 0xffU;
      h *= 1099511628211ULL;
    }
  };
  auto add_reg = [&add](const vuv::Reg& r) {
    add(static_cast<i64>(r.cls));
    add(r.id);
  };
  for (const vuv::BasicBlock& b : sp.prog.blocks) {
    add(b.id);
    add(b.fallthrough);
    add(b.region);
    add(static_cast<i64>(b.ops.size()));
    for (const vuv::Operation& op : b.ops) {
      add(static_cast<i64>(op.op));
      add_reg(op.dst);
      for (const vuv::Reg& r : op.src) add_reg(r);
      add(op.imm);
      add(op.alias_group);
      add(op.target_block);
    }
  }
  for (const vuv::BlockSchedule& bs : sp.blocks) {
    add(bs.length);
    add(static_cast<i64>(bs.words.size()));
    for (const vuv::VliwWord& w : bs.words) {
      add(w.cycle);
      add(static_cast<i64>(w.ops.size()));
      for (const i32 o : w.ops) add(o);
    }
    for (const vuv::Cycle c : bs.issue) add(c);
    for (const i32 vl : bs.sched_vl) add(vl);
  }
  return h;
}

void add_sim_layers(const Fingerprint& fp, std::map<std::string, double>& out) {
  out["sim.cycles"] = static_cast<double>(fp.cycles);
  out["sim.stall_cycles"] = static_cast<double>(fp.stall_cycles());
  out["mem.l1_misses"] = static_cast<double>(fp.l1_misses);
  out["mem.l2_misses"] = static_cast<double>(fp.l2_misses + fp.l2_scalar_misses);
  out["mem.l3_misses"] = static_cast<double>(fp.l3_misses);
  out["mem.stall_cycles"] = static_cast<double>(fp.stall_mem);
}

}  // namespace vuvbench
