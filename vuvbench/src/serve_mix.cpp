// serve_mix: an in-process serve::Server (two workers) on an ephemeral
// loopback port, driven over two client connections:
//
//   1. a batch client at priority `low` requests the Table-1 matrix,
//      realistic then perfect memory (120 cells, 60 compiles);
//   2. once the batch streams, an interactive client at priority `high`
//      sends 118 single-cell requests the batch never asks for, as a closed
//      loop with a short think time: imgpipe in every variant its config
//      supports, and the forced scalar variant of the six codecs on the
//      uSIMD and Vector configs, each in both memory modes;
//   3. the batch client then replays the realistic matrix, every cell of
//      which is a Runner result-map hit.
//
// It is the only workload through admission, the FairDispatcher, frame
// encode/decode and TCP, and the only one where work waits. The seed only
// changes the interactive order.
#include <functional>
#include <future>
#include <map>
#include <mutex>
#include <thread>

#include "cells.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"

namespace vuvbench {

namespace {

using vuv::serve::Client;
using vuv::serve::Response;
using vuv::serve::SimRequestNames;
using vuv::serve::SimRun;

constexpr int kSetupReps = 10;
constexpr i32 kWorkers = 2;
constexpr auto kThinkTime = std::chrono::milliseconds(2);
constexpr int kFrameTimeoutMs = 60'000;
constexpr size_t kMatrixCells = 60;

struct Stream {
  std::vector<vuv::SweepCell> cells;  // in request order
  std::vector<SimRequestNames> requests;
};

/// The interactive cells, one list per app, each shuffled by the seed and
/// merged so every app stays evenly spread over the stream: the seed changes
/// which cell comes when, not how much expensive work overlaps the batch.
Stream interactive_stream(u64 seed) {
  std::map<vuv::App, std::vector<vuv::SweepCell>> by_app;
  for (const vuv::MachineConfig& cfg : vuv::MachineConfig::all_table2()) {
    // A config runs scalar code and its own ISA level's code (the Vector
    // configs have no uSIMD units).
    std::vector<vuv::Variant> variants = {vuv::Variant::kScalar};
    if (cfg.isa != vuv::IsaLevel::kScalar)
      variants.push_back(vuv::variant_for(cfg.isa));
    for (const vuv::Variant v : variants)
      for (const bool perfect : {false, true})
        by_app[vuv::App::kImgPipe].push_back({vuv::App::kImgPipe, v, cfg, perfect});
    if (cfg.isa != vuv::IsaLevel::kScalar)
      for (const vuv::App app : vuv::table1_apps())
        for (const bool perfect : {false, true})
          by_app[app].push_back({app, vuv::Variant::kScalar, cfg, perfect});
  }
  size_t total = 0;
  for (auto& [app, cells] : by_app) {
    seeded_shuffle(cells, seed, 3 + static_cast<u64>(app));
    total += cells.size();
  }
  // Next cell from the app that has emitted the smallest share of its list.
  Stream s;
  std::map<vuv::App, size_t> emitted;
  while (s.cells.size() < total) {
    const vuv::App* pick = nullptr;
    double lowest = 2.0;
    for (const auto& [app, cells] : by_app) {
      const double share =
          static_cast<double>(emitted[app]) / static_cast<double>(cells.size());
      if (share < lowest) {
        lowest = share;
        pick = &app;
      }
    }
    s.cells.push_back(by_app[*pick][emitted[*pick]++]);
  }
  for (size_t i = 0; i < s.cells.size(); ++i) {
    const vuv::SweepCell& c = s.cells[i];
    SimRequestNames r;
    r.id = "interactive-" + std::to_string(i);
    r.apps = {vuv::app_name(c.app)};
    r.configs = {c.cfg.name};
    r.perfect = c.perfect;
    r.variant = vuv::variant_name(c.variant);
    r.priority = "high";
    s.requests.push_back(std::move(r));
  }
  return s;
}

SimRequestNames batch_request(const char* id, bool perfect) {
  SimRequestNames r;  // no apps/configs: the server's Table-1 x Table-2 default
  r.id = id;
  r.perfect = perfect;
  r.priority = "low";
  return r;
}

/// A server with its two connected clients.
struct Session {
  std::unique_ptr<vuv::serve::Server> server;
  std::unique_ptr<Client> batch;
  std::unique_ptr<Client> interactive;

  Session() = default;
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;
  ~Session() {
    interactive.reset();
    batch.reset();
    if (server) server->stop();
  }
};

std::unique_ptr<Session> open_session(i64 max_queued_cells) {
  auto s = std::make_unique<Session>();
  vuv::serve::ServerOptions o;
  o.port = 0;
  o.jobs = kWorkers;
  if (max_queued_cells > 0) o.max_queued_cells = max_queued_cells;
  s->server = std::make_unique<vuv::serve::Server>(o);
  s->server->start();
  s->batch = std::make_unique<Client>("127.0.0.1", s->server->port());
  s->interactive = std::make_unique<Client>("127.0.0.1", s->server->port());
  return s;
}

struct Record {
  std::string id;
  Clock::time_point send, ack, first, done;
  bool have_ack = false;
  bool have_first = false;
  SimRun run;
};

using OnFirstCell = std::function<void()>;
using Exec = std::function<Record(Client&, const SimRequestNames&,
                                  const OnFirstCell&)>;

/// Untraced: the production client call.
Record plain_request(Client& c, const SimRequestNames& req,
                     const OnFirstCell& on_first) {
  Record rec;
  rec.id = req.id;
  rec.send = Clock::now();
  rec.run = c.sim(
      req,
      [&](const Response&) {
        if (!rec.have_first) {
          rec.have_first = true;
          on_first();
        }
        return true;
      },
      kFrameTimeoutMs);
  rec.done = Clock::now();
  return rec;
}

/// Traced: the same request frame by frame, so the ack and the first cell
/// get their own spans (serve.ack, serve.first_cell, serve.stream).
Record traced_request(Client& c, const SimRequestNames& req, SpanLog& log,
                      const OnFirstCell& on_first) {
  Record rec;
  rec.id = req.id;
  Scope span(log, "serve.request", req.id);
  rec.send = Clock::now();
  c.send_line(vuv::serve::encode_sim_request(req));
  for (bool open = true; open;) {
    Response r = c.next(kFrameTimeoutMs);
    const Clock::time_point now = Clock::now();
    switch (r.op) {
      case Response::Op::kAck:
        rec.ack = now;
        rec.have_ack = true;
        rec.run.acked_cells = r.cells;
        break;
      case Response::Op::kCell:
        if (!rec.have_first) {
          rec.first = now;
          rec.have_first = true;
          on_first();
        }
        rec.run.outcomes.push_back(std::move(r.outcome));
        break;
      case Response::Op::kDone:
        rec.run.ok = true;
        open = false;
        break;
      case Response::Op::kError:
        rec.run.code = r.code;
        rec.run.retriable = r.retriable;
        rec.run.error = r.message;
        open = false;
        break;
      default:
        break;
    }
  }
  rec.done = Clock::now();
  Clock::time_point mark = rec.send;
  if (rec.have_ack) {
    log.record("serve.ack", mark, rec.ack, req.id);
    mark = rec.ack;
  }
  if (rec.have_first) {
    log.record("serve.first_cell", mark, rec.first, req.id);
    mark = rec.first;
  }
  log.record("serve.stream", mark, rec.done, req.id);
  return rec;
}

struct Mix {
  Record realistic, perfect, replay;
  std::vector<Record> interactive;
  Clock::time_point end;
};

Mix run_mix(Session& s, const Stream& stream, const Exec& batch_exec,
            const Exec& interactive_exec) {
  Mix m;
  std::promise<void> streaming;
  std::once_flag streaming_once;
  const OnFirstCell signal = [&] {
    std::call_once(streaming_once, [&] { streaming.set_value(); });
  };
  const OnFirstCell ignore = [] {};
  std::exception_ptr batch_error;
  {
    std::jthread batch([&] {
      try {
        m.realistic = batch_exec(*s.batch, batch_request("batch-realistic", false),
                                 signal);
        m.perfect = batch_exec(*s.batch, batch_request("batch-perfect", true),
                               ignore);
        m.replay = batch_exec(*s.batch, batch_request("batch-replay", false),
                              ignore);
      } catch (...) {
        batch_error = std::current_exception();
      }
      signal();  // never leave the interactive stream waiting
    });
    streaming.get_future().wait();
    for (const SimRequestNames& req : stream.requests) {
      m.interactive.push_back(interactive_exec(*s.interactive, req, ignore));
      std::this_thread::sleep_for(kThinkTime);
    }
  }
  if (batch_error) std::rethrow_exception(batch_error);
  m.end = std::max(m.replay.done, m.interactive.back().done);
  return m;
}

Fingerprint fingerprint(const Record& r) {
  Fingerprint fp;
  for (const vuv::CellOutcome& o : r.run.outcomes) fp.add(o.result.sim);
  return fp;
}

/// One operation per request: it fails when refused, errored, short or
/// unverified.
void check_request(const Record& r, size_t cells, Tally& t) {
  ++t.attempted;
  if (!r.run.ok) {
    t.fail(r.id + ": " + vuv::serve::err_code_name(r.run.code) + ": " +
           r.run.error);
    return;
  }
  if (r.run.outcomes.size() != cells) {
    t.fail(r.id + ": " + std::to_string(r.run.outcomes.size()) +
           " cells, expected " + std::to_string(cells));
    return;
  }
  for (const vuv::CellOutcome& o : r.run.outcomes)
    if (!o.result.verified) {
      t.fail(r.id + " " + o.cell.key() + ": " + o.result.verify_error);
      return;
    }
}

/// Request checks and fingerprints shared by the untraced and traced passes.
void check_mix(const Mix& m, Tally& t, Prints& prints) {
  check_request(m.realistic, kMatrixCells, t);
  check_request(m.perfect, kMatrixCells, t);
  check_request(m.replay, kMatrixCells, t);
  Fingerprint inter;
  for (const Record& r : m.interactive) {
    check_request(r, 1, t);
    inter += fingerprint(r);
  }
  prints["realistic"] = fingerprint(m.realistic);
  prints["perfect"] = fingerprint(m.perfect);
  prints["interactive"] = inter;
  // The replay is served from the result map: byte-identical results.
  const auto& a = m.realistic.run.outcomes;
  const auto& b = m.replay.run.outcomes;
  if (a.size() == b.size()) {
    for (size_t i = 0; i < a.size(); ++i)
      if (vuv::serve::result_to_json(a[i].result).dump() !=
          vuv::serve::result_to_json(b[i].result).dump()) {
        t.fail("batch-replay " + b[i].cell.key() +
               ": differs from the first realistic batch");
        break;
      }
  }
}

/// Registry counters of the server, read through Client::stats().
void read_stats(Client& c, const Mix& m, i64& compiles,
                std::map<std::string, double>& layer) {
  std::map<std::string, double> reg = registry_values(c.stats());
  compiles = static_cast<i64>(reg["compile_cache.misses"]);
  double served = 0;
  for (const Record* r : {&m.realistic, &m.perfect, &m.replay})
    served += static_cast<double>(r->run.outcomes.size());
  for (const Record& r : m.interactive)
    served += static_cast<double>(r.run.outcomes.size());
  layer["runner.compile_hits"] = reg["compile_cache.hits"];
  layer["runner.compile_misses"] = reg["compile_cache.misses"];
  layer["runner.pool_wait_s"] = reg["runner.task_wait_us.sum"] * 1e-6;
  layer["runner.result_hits"] = served - reg["sim.cells"];
  layer["serve.shed"] = reg["serve.shed"];
  layer["serve.queue_cells_max"] = reg["serve.queue_cells.max"];
}

class ServeMix : public Workload {
 public:
  explicit ServeMix(const Options& opts)
      : stream_(interactive_stream(opts.seed)),
        max_queued_cells_(opts.inject == "shed" ? 1 : 0) {}

  UntracedPass run_untraced() override {
    UntracedPass p;
    std::unique_ptr<Session> s;
    for (int i = 0; i < kSetupReps; ++i) {
      s.reset();
      const Clock::time_point t0 = Clock::now();
      s = open_session(max_queued_cells_);
      p.setup_s.push_back(seconds_since(t0));
    }
    const Mix m = run_mix(*s, stream_, plain_request, plain_request);
    p.batch_s = ms_between(m.realistic.send, m.perfect.done) * 1e-3;
    p.wall_s = ms_between(m.realistic.send, m.end) * 1e-3;
    for (const Record& r : m.interactive)
      p.latency_ms.push_back(ms_between(r.send, r.done));
    check_mix(m, p.tally, p.prints);
    read_stats(*s->batch, m, p.compiles, p.layer);
    return p;
  }

  TracedPass run_traced(Trace& trace) override {
    TracedPass p;
    std::unique_ptr<Session> s = open_session(max_queued_cells_);
    SpanLog& blog = trace.thread_log(0, "batch client");
    SpanLog& ilog = trace.thread_log(1, "interactive client");
    const Exec batch_exec = [&blog](Client& c, const SimRequestNames& r,
                                    const OnFirstCell& f) {
      return traced_request(c, r, blog, f);
    };
    const Exec inter_exec = [&ilog](Client& c, const SimRequestNames& r,
                                    const OnFirstCell& f) {
      return traced_request(c, r, ilog, f);
    };
    const Mix m = run_mix(*s, stream_, batch_exec, inter_exec);
    p.wall_s = ms_between(m.realistic.send, m.end) * 1e-3;
    check_mix(m, p.tally, p.prints);
    std::map<std::string, double> reg_layer;
    read_stats(*s->batch, m, p.compiles, reg_layer);

    std::vector<double> ack_ms, first_ms;
    std::vector<const Record*> all = {&m.realistic, &m.perfect, &m.replay};
    for (const Record& r : m.interactive) all.push_back(&r);
    for (const Record* r : all) {
      if (r->have_ack) ack_ms.push_back(ms_between(r->send, r->ack));
      if (r->have_first) first_ms.push_back(ms_between(r->send, r->first));
    }
    p.layer["serve.ack_ms"] = median(ack_ms);
    p.layer["serve.first_cell_ms"] = median(first_ms);
    const double replay_s = ms_between(m.replay.send, m.replay.done) * 1e-3;
    p.layer["serve.replay_cells_per_s"] =
        replay_s > 0 ? static_cast<double>(m.replay.run.outcomes.size()) / replay_s
                     : 0.0;

    // Frame encode + decode of every collected outcome.
    const Clock::time_point enc0 = Clock::now();
    size_t frames = 0;
    {
      Scope span(blog, "serve.encode");
      for (const Record* r : all)
        for (size_t i = 0; i < r->run.outcomes.size(); ++i) {
          const vuv::CellOutcome& o = r->run.outcomes[i];
          const Response back = vuv::serve::decode_response(
              vuv::serve::encode_cell(r->id, i, o));
          ++frames;
          if (!(back.outcome.result.sim.cycles == o.result.sim.cycles))
            p.tally.fail(r->id + ": cell frame does not round-trip");
        }
    }
    p.layer["serve.encode_us"] =
        frames ? ms_between(enc0, Clock::now()) * 1e3 / static_cast<double>(frames)
               : 0.0;

    // Each interactive cell's compile + simulate time, re-measured idle in
    // request order; the rest of its latency was spent waiting.
    TracedCells idle;
    Fingerprint idle_fp;
    std::vector<double> wait_ms;
    for (size_t i = 0; i < stream_.cells.size(); ++i) {
      const TracedCells::Outcome o = idle.run(stream_.cells[i], blog);
      idle_fp.add(o.sim);
      const Record& r = m.interactive[i];
      wait_ms.push_back(ms_between(r.send, r.done) - o.service_ms);
    }
    p.layer["serve.interactive_wait_ms"] = median(wait_ms);
    if (!(idle_fp == p.prints["interactive"]))
      p.tally.fail("idle re-measure of the interactive cells: fingerprint " +
                   idle_fp.json() + " differs from the served " +
                   p.prints["interactive"].json());
    idle.totals().report(p.layer);
    add_sim_layers(idle_fp, p.layer);
    p.thread_s = ms_between(m.realistic.send, Clock::now()) * 1e-3 +
                 ms_between(m.interactive.front().send,
                            m.interactive.back().done) * 1e-3;
    return p;
  }

 private:
  Stream stream_;
  i64 max_queued_cells_;
};

}  // namespace

std::unique_ptr<Workload> make_serve_mix(const Options& opts) {
  return std::make_unique<ServeMix>(opts);
}

}  // namespace vuvbench
