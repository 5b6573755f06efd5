// spx_perfbench: the repository benchmark driver (README.md).
//
//   spx_perfbench --workload oneshot3d|timestep2d|serve|wire --seed N
//                 --seconds S --trace 0|1 [--out-dir DIR]
//
// Prints one line per metric (value, unit, sample count, how it was
// obtained), the error rate, and as its last line one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1).  Exits 1 when any answer was wrong.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "common/log.hpp"
#include "layers.hpp"
#include "workloads.hpp"

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "spx_perfbench: %s\nusage: spx_perfbench --workload "
               "oneshot3d|timestep2d|serve|wire --seed N --seconds S "
               "--trace 0|1 [--out-dir DIR]\n",
               why);
  std::exit(2);
}

pb::Args parse(int argc, char** argv) {
  pb::Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + k).c_str());
    const char* v = argv[++i];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v, nullptr, 10);
    } else if (k == "--seconds") {
      a.seconds = std::atof(v);
    } else if (k == "--trace") {
      a.trace = std::atoi(v) != 0;
    } else if (k == "--out-dir") {
      a.out_dir = v;
    } else {
      usage(("unknown option " + k).c_str());
    }
  }
  if (!(a.seconds > 0)) usage("--seconds must be positive");
  return a;
}

/// Shortest round-trip text of a double, so every digit measured is kept.
std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  const pb::Args args = parse(argc, argv);
  spx::set_log_level(spx::LogLevel::Warn);
  pb::Report rep;
  try {
    if (args.workload == "oneshot3d") {
      rep = pb::run_oneshot3d(args);
    } else if (args.workload == "timestep2d") {
      rep = pb::run_timestep2d(args);
    } else if (args.workload == "serve") {
      rep = pb::run_serve(args);
    } else if (args.workload == "wire") {
      rep = pb::run_wire(args);
    } else {
      usage(("unknown workload '" + args.workload + "'").c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "spx_perfbench: %s\n", e.what());
    return 1;
  }

  const auto& defs =
      args.trace ? pb::per_layer_defs() : pb::end_to_end_defs();
  pb::fill_missing(defs, rep);
  std::printf("workload %s seed %llu seconds %g trace %d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  std::string json = "{\"correct\": ";
  json += rep.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(rep.attempted);
  json += ", \"failed\": " + std::to_string(rep.failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const pb::MetricDef& d : defs) {
    for (const pb::Metric& m : rep.metrics) {
      if (m.name != d.name) continue;
      std::printf("  %-28s %14.6g %-8s n=%-6zu %s\n", m.name.c_str(),
                  m.value, m.unit.c_str(), m.samples, m.note.c_str());
      if (!first) json += ", ";
      first = false;
      json += "\"" + m.name + "\": {\"value\": " + num(m.value) +
              ", \"unit\": \"" + m.unit + "\"}";
    }
  }
  json += "}}";
  const double error_rate =
      rep.attempted > 0
          ? static_cast<double>(rep.failed) / static_cast<double>(rep.attempted)
          : 0.0;
  std::printf("  %-28s %14.6g %-8s n=%-6llu %s\n", "error_rate", error_rate,
              "ratio", static_cast<unsigned long long>(rep.attempted),
              "failed / attempted (JSON fields)");
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return rep.correct ? 0 : 1;
}
