// oracle_fuzz: generate -> materialize -> diff_program over a seeded range
// of generated programs x 3 variants x both memory modes, with vuv_fuzz's
// per-seed Table-2 configuration rotation, on one thread. It is the only
// workload through src/ref; its cells take about a millisecond, so fixed
// per-cell costs dominate and a change that buys per-cycle speed with
// per-cell set-up shows its cost here.
#include <optional>

#include "cells.hpp"
#include "ref/diff.hpp"
#include "ref/gen.hpp"
#include "sched/regalloc.hpp"

namespace vuvbench {

namespace {

constexpr u64 kProgramsPerVariant = 500;
constexpr vuv::i32 kAtoms = 32;  // vuv_fuzz's default
constexpr int kSetupReps = 20;

/// The pass's inputs: generator options and a configuration from the
/// variant's rotation. Items refer to their configuration by pointer, so
/// the list stays small (~50 KB, below glibc's mmap threshold): repeating
/// the set-up with 375 KB lists moved glibc's dynamic mmap/trim thresholds
/// so that the ~2.3 MiB each cell allocates was refaulted on every cell,
/// doubling wall time.
struct Work {
  std::vector<std::vector<vuv::MachineConfig>> rotations;
  struct Item {
    vuv::GenOptions gen;
    const vuv::MachineConfig* cfg = nullptr;
  };
  std::vector<Item> items;
};
using Item = Work::Item;

/// Seed s fuzzes generator seeds [s * 500, s * 500 + 500) in each variant;
/// generator seed g runs on configuration g mod |rotation| of its variant,
/// as vuv_fuzz does.
Work make_work(u64 seed) {
  using vuv::MachineConfig;
  Work w;
  w.rotations = {
      {MachineConfig::vliw(2), MachineConfig::vliw(4), MachineConfig::vliw(8)},
      {MachineConfig::musimd(2), MachineConfig::musimd(4),
       MachineConfig::musimd(8)},
      {MachineConfig::vector1(2), MachineConfig::vector1(4),
       MachineConfig::vector2(2), MachineConfig::vector2(4)}};
  const vuv::Variant variants[] = {vuv::Variant::kScalar,
                                   vuv::Variant::kMusimd,
                                   vuv::Variant::kVector};
  const u64 lo = seed * kProgramsPerVariant;
  w.items.reserve(3 * kProgramsPerVariant);
  for (size_t v = 0; v < 3; ++v) {
    const std::vector<MachineConfig>& cfgs = w.rotations[v];
    for (u64 g = lo; g < lo + kProgramsPerVariant; ++g) {
      Item it;
      it.gen.variant = variants[v];
      it.gen.seed = g;
      it.gen.atoms = kAtoms;
      it.cfg = &cfgs[g % cfgs.size()];
      w.items.push_back(it);
    }
  }
  return w;
}

std::string item_key(const Item& it) {
  return std::string(vuv::variant_name(it.gen.variant)) + "|seed" +
         std::to_string(it.gen.seed) + "|" + it.cfg->name;
}

/// diff_program's checks, applied to the traced pass's two sides. The
/// memory check is a memcmp (std::equal): diff_program's own byte-wise
/// std::mismatch is private to the library, and a copy of it here ran at
/// 0.1-1.1 ms per MiB depending on where the linker placed it, which made
/// this layer's time a property of the harness binary's layout.
std::string compare(const vuv::MainMemory& ref_mem,
                    const vuv::MainMemory& sim_mem,
                    const vuv::InterpResult& ref, const vuv::SimResult& sim,
                    const vuv::ScheduledProgram& sp) {
  std::string err;
  const std::span<const u8> a = ref_mem.bytes(0, ref_mem.size());
  const std::span<const u8> b = sim_mem.bytes(0, sim_mem.size());
  if (!std::equal(a.begin(), a.end(), b.begin(), b.end()))
    err += "final memory differs; ";
  if (ref.retired_ops != sim.total_ops()) err += "dynamic op count differs; ";
  if (ref.retired_uops != sim.total_uops()) err += "dynamic uop count differs; ";
  if (ref.taken_branches != sim.taken_branches) err += "taken branches differ; ";
  vuv::Cycle lower = ref.taken_branches;
  for (size_t i = 0; i < ref.block_counts.size(); ++i)
    lower += ref.block_counts[i] * (i < sp.blocks.size() ? sp.blocks[i].length : 0);
  if (sim.cycles < lower) err += "cycles below the static-schedule bound; ";
  if (sim.stall_cycles > sim.cycles) err += "stall cycles exceed cycles; ";
  i64 words = 0;
  vuv::Cycle region_cycles = 0;
  for (const vuv::RegionStats& r : sim.regions) {
    words += r.words;
    region_cycles += r.cycles;
  }
  if (words > sim.cycles) err += "issued words exceed cycles; ";
  if (region_cycles != sim.cycles) err += "region cycles do not sum to total; ";
  return err;
}

class OracleFuzz : public Workload {
 public:
  explicit OracleFuzz(const Options& opts) : seed_(opts.seed) {}

  UntracedPass run_untraced() override {
    UntracedPass p;
    Work work;
    for (int i = 0; i < kSetupReps; ++i) {
      const Clock::time_point t0 = Clock::now();
      work = make_work(seed_);
      p.setup_s.push_back(seconds_since(t0));
    }
    Fingerprint fp;
    const Clock::time_point t0 = Clock::now();
    for (const Item& it : work.items) {
      const vuv::GenProgram prog = vuv::generate(it.gen);
      const vuv::GenBuilt built = vuv::materialize(prog);
      for (const bool perfect : {false, true}) {
        vuv::MachineConfig cfg = *it.cfg;
        cfg.mem.perfect = perfect;
        const Clock::time_point c0 = Clock::now();
        const vuv::DiffReport rep = vuv::diff_program(
            built.program, built.ws->mem(), built.ws->used(), cfg);
        p.latency_ms.push_back(ms_between(c0, Clock::now()));
        ++p.tally.attempted;
        if (!rep.ok)
          p.tally.fail(item_key(it) + (perfect ? "|p: " : "|r: ") + rep.error);
        fp.add(rep.sim);
      }
    }
    p.wall_s = seconds_since(t0);
    p.batch_s = p.wall_s;
    p.prints["total"] = fp;
    p.compiles = p.tally.attempted;  // diff_program compiles every cell
    return p;
  }

  TracedPass run_traced(Trace& trace) override {
    TracedPass p;
    const Work work = make_work(seed_);
    SpanLog& log = trace.thread_log(0, "oracle");
    Fingerprint fp;
    CompileTotals totals;
    i64 dyn_ops = 0;
    i64 divergences = 0;
    const Clock::time_point t0 = Clock::now();
    for (const Item& it : work.items) {
      const std::string unit = item_key(it);
      vuv::GenProgram prog;
      {
        Scope s(log, "ref.generate", unit);
        prog = vuv::generate(it.gen);
      }
      vuv::GenBuilt built;
      {
        Scope s(log, "ref.materialize", unit);
        built = vuv::materialize(prog);
      }
      for (const bool perfect : {false, true}) {
        vuv::MachineConfig cfg = *it.cfg;
        cfg.mem.perfect = perfect;
        ++p.tally.attempted;
        std::string err;
        try {
          Scope cell(log, "cell", unit + (perfect ? "|p" : "|r"));
          std::optional<vuv::MainMemory> ref_mem;
          vuv::InterpResult ref;
          {
            Scope s(log, "ref.interpret");
            ref_mem.emplace(built.ws->mem());
            ref = vuv::interpret(built.program, *ref_mem);
          }
          // diff_program's order, allocations included: the simulator's
          // memory copy, the compile, then the image its Cpu lowers.
          std::optional<vuv::MainMemory> sim_mem;
          {
            Scope s(log, "sim.cpu_init");
            sim_mem.emplace(built.ws->mem());
          }
          vuv::Program copy;
          {
            Scope s(log, "ir.verify");  // with compile()'s program copy
            copy = built.program;
            vuv::verify(copy);
          }
          {
            Scope s(log, "sched.regalloc");
            vuv::allocate_registers(copy, cfg);
          }
          vuv::ScheduledProgram sp;
          {
            Scope s(log, "sched.schedule");
            sp = vuv::schedule_program(std::move(copy), cfg);
          }
          vuv::ExecImage image;
          {
            Scope s(log, "sim.lower");
            image = vuv::lower_image(sp, cfg);
          }
          std::optional<vuv::Cpu> cpu;
          {
            Scope s(log, "sim.cpu_init");
            cpu.emplace(sp, cfg, *sim_mem, image);
            cpu->warm(0, built.ws->used());
          }
          vuv::SimResult sim;
          {
            Scope s(log, "sim.run");
            sim = cpu->run();
          }
          {
            Scope s(log, "ref.compare");
            err = compare(*ref_mem, *sim_mem, ref, sim, sp);
          }
          fp.add(sim);
          dyn_ops += ref.retired_ops;
          totals.add(sp, image);
        } catch (const vuv::InternalError&) {
          throw;
        } catch (const vuv::Error& e) {
          err = e.what();
        }
        if (!err.empty()) {
          ++divergences;
          p.tally.fail(unit + (perfect ? "|p: " : "|r: ") + err);
        }
      }
    }
    p.wall_s = seconds_since(t0);
    p.thread_s = p.wall_s;
    p.prints["total"] = fp;
    p.compiles = totals.compiles;
    totals.report(p.layer);
    add_sim_layers(fp, p.layer);
    p.layer["ref.dyn_ops"] = static_cast<double>(dyn_ops);
    p.layer["ref.divergences"] = static_cast<double>(divergences);
    return p;
  }

 private:
  u64 seed_;
};

}  // namespace

std::unique_ptr<Workload> make_oracle_fuzz(const Options& opts) {
  return std::make_unique<OracleFuzz>(opts);
}

}  // namespace vuvbench
