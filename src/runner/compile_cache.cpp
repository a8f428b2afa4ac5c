#include "runner/compile_cache.hpp"

#include <chrono>

#include "common/error.hpp"
#include "verify/schedcheck.hpp"

namespace vuv {

namespace {

std::string unit_name(App app, Variant variant) {
  std::string unit = app_name(app);
  unit += '|';
  unit += variant_name(variant);
  return unit;
}

i64 micros_since(std::chrono::steady_clock::time_point started) {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - started)
      .count();
}

i64 image_bytes(const ExecImage& im) {
  return static_cast<i64>(im.ops.size() * sizeof(DecodedOp) +
                          im.words.size() * sizeof(DecodedWord) +
                          im.blocks.size() * sizeof(DecodedBlock));
}

}  // namespace

void CompileCache::set_metrics(obs::Registry* metrics) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!metrics) {
    m_hits_ = nullptr;
    m_misses_ = nullptr;
    m_schedules_ = nullptr;
    m_build_us_ = nullptr;
    m_unit_us_ = nullptr;
    m_bytes_ = nullptr;
    m_plan_bytes_ = nullptr;
    return;
  }
  m_hits_ = &metrics->counter("compile_cache.hits");
  m_misses_ = &metrics->counter("compile_cache.misses");
  m_schedules_ = &metrics->counter("compile_cache.schedules");
  m_build_us_ = &metrics->histogram("compile_cache.build_us");
  m_unit_us_ = &metrics->histogram("compile_cache.unit_us");
  m_bytes_ = &metrics->gauge("compile_cache.bytes");
  m_plan_bytes_ = &metrics->gauge("compile_cache.plan_bytes");
}

std::string CompileCache::key(App app, Variant variant,
                              const MachineConfig& cfg) {
  std::string key = unit_name(app, variant);
  key += '|';
  key += schedule_signature(cfg);
  return key;
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
      const auto started = std::chrono::steady_clock::now();
      BuiltApp b = build_app(app, variant);
      // Neither reads a configuration, so they run once per unit, before
      // any compile copies the program.
      verify(b.program);
      RegPlan plan = plan_registers(b.program);
      const i64 plan_bytes = plan.bytes();
      auto built = std::make_shared<const BuiltUnit>(
          BuiltUnit{std::move(b.name), std::move(b.program), std::move(plan),
                    std::move(*b.ws), std::move(b.verify)});
      if (m_unit_us_) m_unit_us_->observe(micros_since(started));
      if (m_plan_bytes_) m_plan_bytes_->add(plan_bytes);
      promise.set_value(std::move(built));
    } catch (...) {
      promise.set_exception(std::current_exception());
    }
  }
  return entry.get();
}

std::shared_ptr<const CompiledProgram> CompileCache::get(
    App app, Variant variant, const MachineConfig& cfg) {
  const std::string unit = unit_name(app, variant);
  std::string identity = unit;  // what Stats counts
  identity += '|';
  identity += compile_signature(cfg);
  const std::string k = key(app, variant, cfg);  // what is compiled

  std::promise<std::shared_ptr<const CompiledProgram>> promise;
  std::shared_future<std::shared_ptr<const CompiledProgram>> entry;
  bool owner = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (identities_.insert(std::move(identity)).second) {
      ++stats_.misses;
      if (m_misses_) m_misses_->inc();
    } else {
      ++stats_.hits;
      if (m_hits_) m_hits_->inc();
    }
    auto it = entries_.find(k);
    if (it != entries_.end()) {
      entry = it->second.compiled;
    } else {
      ++compiles_;
      if (m_schedules_) m_schedules_->inc();
      entry = promise.get_future().share();
      entries_.emplace(k, Entry{entry, 0});
      owner = true;
    }
  }

  if (owner) {
    // Compile outside the lock so independent keys compile concurrently.
    const auto started = std::chrono::steady_clock::now();
    try {
      // Canonicalize the compile configuration's memory hierarchy: no
      // compile layer reads it, and each simulation supplies its own
      // through the Cpu's configuration.
      MachineConfig compile_cfg = cfg;
      compile_cfg.mem = MemParams{};
      auto cp = std::make_shared<CompiledProgram>();
      cp->unit = built_unit(app, variant, unit);
      const bool strict = strict_verify_.load(std::memory_order_relaxed);
      CompileOptions copts;
      if (strict) {
        copts.strict_verify = true;
        copts.mem_extent = cp->unit->ws.used();
        copts.unit = unit;
      }
      {
        // The schedule lives only until lowered: replay reads the image.
        const ScheduledProgram sp = compile(
            Program(cp->unit->program), compile_cfg, cp->unit->plan, copts);
        cp->image = lower_image(sp, compile_cfg);
        if (strict) {
          const lint::DiagReport rep = lint::check_image(sp, cp->image, {unit});
          if (rep.errors() > 0)
            throw CompileError("strict image check (" + rep.summary() +
                               "): " + lint::to_string(*rep.first_error()));
        }
      }
      if (m_build_us_) m_build_us_->observe(micros_since(started));
      const i64 bytes = image_bytes(cp->image);
      {
        // Still present: release() leaves in-flight entries alone.
        std::lock_guard<std::mutex> lock(mu_);
        entries_.at(k).bytes = bytes;
        if (m_bytes_) m_bytes_->add(bytes);
      }
      promise.set_value(std::move(cp));
    } catch (...) {
      promise.set_exception(std::current_exception());
    }
  }
  return entry.get();
}

void CompileCache::release(const std::string& key) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = entries_.find(key);
  if (it == entries_.end() ||
      it->second.compiled.wait_for(std::chrono::seconds(0)) !=
          std::future_status::ready)
    return;
  if (m_bytes_) m_bytes_->sub(it->second.bytes);
  entries_.erase(it);
}

CompileCache::Stats CompileCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

i64 CompileCache::compiled_programs() const {
  std::lock_guard<std::mutex> lock(mu_);
  return compiles_;
}

}  // namespace vuv
