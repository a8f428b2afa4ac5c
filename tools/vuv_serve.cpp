// vuv_serve — simulation-as-a-service daemon. Accepts newline-delimited
// JSON requests over local TCP (wire format: docs/PROTOCOL.md), schedules
// cells onto the shared parallel Runner (so identical compiles dedup
// across clients), streams per-cell results back in spec order, and sheds
// load with a retriable `overloaded` error when the admission queue is
// full.
//
//   vuv_serve                       # 127.0.0.1, ephemeral port, all cores
//   vuv_serve --port 7777 --jobs 4
//   vuv_serve --queue-limit 64 --idle-timeout 30000
//
// On startup the daemon prints exactly one line to stdout:
//
//   VUV_SERVE READY port=<port>
//
// Scripts (scripts/serve_smoke.sh, the ctest soak driver) parse
// that line to discover the ephemeral port; everything else goes to
// stderr. SIGINT/SIGTERM drain in-flight requests and exit 0.
#include <csignal>
#include <iostream>

#include "cli.hpp"
#include "serve/server.hpp"

using namespace vuv;

namespace {

const cli::Usage kUsage{
    "vuv_serve",
    "Long-running simulation daemon: NDJSON requests over local TCP,\n"
    "batched onto the shared parallel runner (docs/PROTOCOL.md).",
    "On startup exactly one line is printed to stdout:\n"
    "\n"
    "  VUV_SERVE READY port=<port>\n"
    "\n"
    "so scripts can discover the bound (possibly ephemeral) port. All\n"
    "logging goes to stderr. SIGINT/SIGTERM stop accepting, drain, exit 0.",
    {
        {"--host ADDR", "address to bind (default 127.0.0.1; loopback only\n"
                        "unless you know what you are doing)"},
        {"--port N", "TCP port to listen on (default 0 = ephemeral)"},
        {"--jobs N", "simulation worker threads (default: hardware\n"
                     "concurrency)"},
        {"--queue-limit N",
         "admission-queue bound in CELLS across all clients;\n"
         "a sim request that would exceed it is shed whole with\n"
         "a retriable `overloaded` error (default 256)"},
        {"--idle-timeout MS",
         "disconnect clients idle (no frames, no queued work)\n"
         "for MS milliseconds; 0 = never (default 0)"},
        {"--inflight N",
         "fairness window: cells dispatched to the pool but not\n"
         "yet streamed, across all clients; small = snappier\n"
         "interactive requests next to big batches (default:\n"
         "2x the worker count)"},
        {"--cache-dir PATH",
         "persistent on-disk result cache: completed cells are\n"
         "stored under PATH (created if missing) and served on\n"
         "restart without compiling or simulating, byte-identical\n"
         "to a fresh run; safe to share between daemons"},
        {"--cache-entries N",
         "LRU bound on cached entries in --cache-dir\n"
         "(default 65536)"},
        {"--strict",
         "run the static verifier inside every compile (same\n"
         "gate as vuv_sweep --strict)"},
        {"--metrics PATH",
         "on shutdown, write the serve+runner metrics snapshot\n"
         "as JSON to PATH (- = stderr)"},
    },
    {
        "vuv_serve                       # ephemeral port, all cores",
        "vuv_serve --port 7777 --jobs 4",
        "vuv_serve --queue-limit 64 --idle-timeout 30000",
    }};

serve::Server* g_server = nullptr;

void on_signal(int) {
  // async-signal-safe: request_stop only flips an atomic and closes the
  // listening socket's shutdown pipe-free poll loop via the stopping flag.
  if (g_server) g_server->request_stop();
}

}  // namespace

int main(int argc, char** argv) {
  serve::ServerOptions opts;
  std::string metrics_path;

  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      auto value = [&]() -> std::string {
        if (i + 1 >= argc) throw Error("missing value for " + arg);
        return argv[++i];
      };
      if (arg == "-h" || arg == "--help") {
        std::cout << kUsage.text();
        return 0;
      } else if (arg == "--host") {
        opts.host = value();
      } else if (arg == "--port") {
        // port 0 (ephemeral) is valid, so parse_positive_int is too strict
        const std::string v = value();
        if (v == "0") {
          opts.port = 0;
        } else {
          opts.port = cli::parse_positive_int(arg, v);
          if (opts.port > 65535) throw Error("--port must be <= 65535");
        }
      } else if (arg == "--jobs") {
        opts.jobs = cli::parse_jobs(arg, value());
      } else if (arg == "--queue-limit") {
        opts.max_queued_cells = cli::parse_positive_int(arg, value());
      } else if (arg == "--idle-timeout") {
        opts.idle_timeout_ms = cli::parse_positive_int(arg, value());
      } else if (arg == "--inflight") {
        opts.max_inflight_cells = cli::parse_positive_int(arg, value());
      } else if (arg == "--cache-dir") {
        opts.cache_dir = value();
      } else if (arg == "--cache-entries") {
        opts.cache_entries = cli::parse_positive_int(arg, value());
      } else if (arg == "--strict") {
        opts.strict = true;
      } else if (arg == "--metrics") {
        metrics_path = value();
      } else {
        throw Error("unknown option: " + arg + " (see --help)");
      }
    }

    serve::Server server(opts);
    server.start();
    g_server = &server;
    std::signal(SIGINT, on_signal);
    std::signal(SIGTERM, on_signal);

    // The readiness line is the tool's only stdout output; scripts depend
    // on its exact shape.
    std::cout << "VUV_SERVE READY port=" << server.port() << "\n"
              << std::flush;
    std::cerr << "[vuv_serve] listening on " << opts.host << ":"
              << server.port() << " (" << server.runner().jobs()
              << " worker(s), queue limit " << opts.max_queued_cells
              << " cells)\n";
    if (!opts.cache_dir.empty())
      std::cerr << "[vuv_serve] result cache: " << opts.cache_dir << "\n";

    server.wait();  // until request_stop() via signal or fatal accept error
    server.stop();
    g_server = nullptr;

    if (!metrics_path.empty()) {
      // stdout is reserved for the READY line, so "-" means stderr here.
      if (metrics_path == "-") {
        server.metrics().write_json(std::cerr);
        std::cerr << "\n";
      } else {
        cli::write_output(metrics_path, [&](std::ostream& os) {
          server.metrics().write_json(os);
        });
      }
    }
    std::cerr << "[vuv_serve] shut down cleanly\n";
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "vuv_serve: " << e.what() << "\n";
    return 2;
  }
}
