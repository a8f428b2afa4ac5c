#include "runner/compile_cache.hpp"

#include <chrono>

#include "common/error.hpp"
#include "verify/schedcheck.hpp"

namespace vuv {

void CompileCache::set_metrics(obs::Registry* metrics) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!metrics) {
    m_hits_ = nullptr;
    m_misses_ = nullptr;
    m_build_us_ = nullptr;
    return;
  }
  m_hits_ = &metrics->counter("compile_cache.hits");
  m_misses_ = &metrics->counter("compile_cache.misses");
  m_build_us_ = &metrics->histogram("compile_cache.build_us");
}

std::shared_ptr<const BuiltUnit> CompileCache::built_unit(
    App app, Variant variant, const std::string& unit) {
  std::promise<std::shared_ptr<const BuiltUnit>> promise;
  BuiltEntry entry;
  bool owner = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = built_.find(unit);
    if (it != built_.end()) {
      entry = it->second;
    } else {
      entry = promise.get_future().share();
      built_.emplace(unit, entry);
      owner = true;
    }
  }
  if (owner) {
    try {
      BuiltApp b = build_app(app, variant);
      promise.set_value(std::make_shared<const BuiltUnit>(
          BuiltUnit{std::move(b.name), std::move(b.program), std::move(*b.ws),
                    std::move(b.verify)}));
    } catch (...) {
      promise.set_exception(std::current_exception());
    }
  }
  return entry.get();
}

std::shared_ptr<const CompiledProgram> CompileCache::get(
    App app, Variant variant, const MachineConfig& cfg) {
  std::string key = app_name(app);
  key += '|';
  key += variant_name(variant);
  const std::string unit = key;  // diagnostic label for strict verification
  key += '|';
  key += compile_signature(cfg);

  std::promise<std::shared_ptr<const CompiledProgram>> promise;
  Entry entry;
  bool owner = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(key);
    if (it != entries_.end()) {
      ++stats_.hits;
      if (m_hits_) m_hits_->inc();
      entry = it->second;
    } else {
      ++stats_.misses;
      if (m_misses_) m_misses_->inc();
      entry = promise.get_future().share();
      entries_.emplace(std::move(key), entry);
      owner = true;
    }
  }

  if (owner) {
    // Compile outside the lock so independent keys compile concurrently.
    const auto started = std::chrono::steady_clock::now();
    try {
      // Canonicalize the stored configuration to realistic memory: the
      // signature guarantees the schedule is identical either way, and
      // simulations supply their own memory mode via the Cpu override.
      MachineConfig compile_cfg = cfg;
      compile_cfg.mem.perfect = false;
      auto cp = std::make_shared<CompiledProgram>();
      cp->unit = built_unit(app, variant, unit);
      const bool strict = strict_verify_.load(std::memory_order_relaxed);
      CompileOptions copts;
      if (strict) {
        copts.strict_verify = true;
        copts.mem_extent = cp->unit->ws.used();
        copts.unit = unit;
      }
      cp->sp = compile(Program(cp->unit->program), compile_cfg, copts);
      cp->image = lower_image(cp->sp, compile_cfg);
      if (strict) {
        const lint::DiagReport rep =
            lint::check_image(cp->sp, cp->image, {unit});
        if (rep.errors() > 0)
          throw CompileError("strict image check (" + rep.summary() +
                             "): " + lint::to_string(*rep.first_error()));
      }
      if (m_build_us_)
        m_build_us_->observe(std::chrono::duration_cast<std::chrono::microseconds>(
                                 std::chrono::steady_clock::now() - started)
                                 .count());
      promise.set_value(std::move(cp));
    } catch (...) {
      promise.set_exception(std::current_exception());
    }
  }
  return entry.get();
}

CompileCache::Stats CompileCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

i64 CompileCache::compiled_programs() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_.misses;
}

}  // namespace vuv
