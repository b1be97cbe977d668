// perfbench: the repository benchmark. One process runs one workload for
// --seconds, checks every answer, and prints as its last line one JSON
// object: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are the end-to-end ones; with --trace 1 the run is split into an
// untraced and a traced half and the metrics are the per-layer ones.
//
//   perfbench --workload wire_p2p --seed 1 --seconds 20 --trace 0
//             [--out-dir DIR] [--tiny] [--inject-fault]

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iterator>
#include <memory>
#include <string>

#include "base/simd.h"
#include "trace.h"
#include "workload.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

// Printed in this order; BENCHMARK.json lists the same names.
const char* const kEndToEnd[] = {
    "setup_s",         "rss_peak_mb",      "build_s",
    "publish_s",       "oracle_bytes",     "rtt_p50_us.r40k",
    "rtt_p50_us.r120k", "distance_p50_us", "insert_p50_ms"};

// Measured and printed, but not gated: across runs on a shared 4-core host
// they moved by more than the 0.25 bound (see README.md).
const char* const kInformational[] = {
    "rtt_p90_us.r40k", "rtt_p90_us.r120k", "read_ops_s",
    "knn_p50_us",      "range_p50_us",     "insert_p90_ms"};

const char* const kPerLayer[] = {
    "terrain.synth_s",          "geodesic.ssad_runs",
    "geodesic.settles",         "geodesic.relaxations",
    "geodesic.tree_waste_ratio", "geodesic.ssad_ms",
    "oracle.tree_s",            "oracle.enhanced_s",
    "oracle.pairs_s",           "oracle.node_pairs",
    "oracle.height",            "oracle.serialize_flat_s",
    "oracle.serialize_pack_s",  "oracle.open_flat_ms",
    "oracle.open_pack_ms",      "oracle.distance_ns",
    "oracle.probes_per_query",  "oracle.hit_ratio",
    "query.knn_us",             "query.range_us",
    "query.knn_probes",         "query.range_probes",
    "dyn.merge_publish_ms",     "dyn.compactions",
    "dyn.compact_s",            "dyn.publishes",
    "dyn.delta_size_max",       "dyn.epoch_pending_max",
    "serve.distance_ns",        "serve.admit_pin_ns",
    "serve.shed",               "serve.deadline_exceeded",
    "net.encode_req_ns",        "net.decode_frame_ns",
    "net.parse_req_ns",         "net.encode_resp_ns",
    "net.parse_resp_ns",        "net.frames_per_batch",
    "net.rtt_blocking_us",      "net.session_residual_us",
    "base.socket_echo_us",      "gen.late_us_p50",
    "gen.late_us_max",          "gen.backlog_max"};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 20;
  int trace = 0;
  std::string out_dir = ".";
  bool tiny = false;
  bool inject_fault = false;
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--out-dir DIR] [--tiny] "
               "[--inject-fault]\n",
               why);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
      return argv[++i];
    };
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = value();
    } else if (flag == "--seed") {
      const std::string v = value();
      a.seed = std::strtoull(v.c_str(), &end, 10);
      if (v.empty() || *end != '\0') Usage("bad --seed");
    } else if (flag == "--seconds") {
      const std::string v = value();
      a.seconds = std::strtod(v.c_str(), &end);
      if (v.empty() || *end != '\0' || !(a.seconds > 0)) {
        Usage("bad --seconds");
      }
    } else if (flag == "--trace") {
      const std::string v = value();
      if (v != "0" && v != "1") Usage("bad --trace");
      a.trace = v == "1";
    } else if (flag == "--out-dir") {
      a.out_dir = value();
    } else if (flag == "--tiny") {
      a.tiny = true;
    } else if (flag == "--inject-fault") {
      a.inject_fault = true;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (a.workload.empty()) Usage("--workload is required");
  return a;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// One pass of the workload: set-up, build and publish, wire, churn.
void RunPass(Context& ctx, bool traced) {
  Trace::Enable(traced);
  const WorkloadConfig& cfg = *ctx.cfg;
  RunSetup(ctx);
  RunBuild(ctx, ctx.seconds * cfg.build_share);
  RunWire(ctx, ctx.seconds * cfg.wire_share);
  RunChurn(ctx, ctx.seconds * cfg.churn_share);
  if (traced) RunLayerProbes(ctx);
  Trace::Enable(false);
  ctx.e2e.Set("rss_peak_mb", PeakRssMb(), "MB");
}

void PrintLayerTable() {
  std::printf("traced spans by layer (self = duration minus children):\n");
  std::printf("  %-26s %9s %12s %12s %12s\n", "span", "count", "total_ms",
              "self_ms", "p50_us");
  const std::vector<Trace::NameStats> stats = Trace::Summarize();
  for (const char* layer : {"terrain", "geodesic", "oracle", "query", "dyn",
                            "serve", "net", "base"}) {
    const std::string prefix = std::string(layer) + ".";
    for (const Trace::NameStats& s : stats) {
      if (s.name.rfind(prefix, 0) != 0) continue;
      std::printf("  %-26s %9llu %12.3f %12.3f %12.3f\n", s.name.c_str(),
                  static_cast<unsigned long long>(s.count), s.total_ns * 1e-6,
                  s.self_ns * 1e-6, s.durations_ns.Percentile(50) * 1e-3);
    }
  }
}

void PrintResult(const Context& ctx, const MetricSet& metrics,
                 const char* const* names, size_t count) {
  bool complete = true;
  std::string json = "{";
  for (size_t i = 0; i < count; ++i) {
    if (!metrics.Has(names[i])) {
      std::fprintf(stderr, "perfbench: metric %s was not measured\n",
                   names[i]);
      complete = false;
      continue;
    }
    double value = metrics.Get(names[i]);
    const std::string unit = metrics.Unit(names[i]);
    std::printf("metric %-26s %.6g %s\n", names[i], value, unit.c_str());
    if (!std::isfinite(value)) value = 1e300;  // a failure: worst possible
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": "
                  "\"%s\"}", i == 0 ? "" : ", ", names[i], value,
                  unit.c_str());
    json += buf;
  }
  json += "}";
  const uint64_t failed = ctx.tally.failed();
  const bool correct = complete && failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(ctx.tally.attempted()),
              static_cast<unsigned long long>(failed), json.c_str());
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  const WorkloadConfig* found = FindWorkload(args.workload);
  if (found == nullptr) Usage(("unknown workload " + args.workload).c_str());
  WorkloadConfig cfg = *found;
  if (args.tiny) {
    cfg.vertices = 300;
    cfg.pois = 40;
  }

  const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
  const uint32_t threads =
      std::max({cfg.build_workers, 2 * kConnections, kReaders + 1});
  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              cfg.name, static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace);
  std::printf("env: nproc=%ld simd=%s (active %s) build=%s threads=%u%s\n",
              nproc, tso::SimdLevelName(tso::DetectCpuSimdLevel()),
              tso::SimdLevelName(tso::ActiveSimdLevel()),
              PERFBENCH_BUILD_TYPE, threads, args.tiny ? " tiny" : "");
  std::printf("why: %s\n", cfg.why);
  if (nproc > 0 && threads > static_cast<uint32_t>(nproc)) {
    std::fprintf(stderr,
                 "perfbench: workload needs %u threads but nproc is %ld\n",
                 threads, nproc);
    return 2;
  }
  std::filesystem::create_directories(args.out_dir);

  auto make_context = [&](double seconds) {
    auto ctx = std::make_unique<Context>();
    ctx->cfg = &cfg;
    ctx->seed = args.seed;
    ctx->seconds = seconds;
    ctx->inject_fault = args.inject_fault;
    ctx->flat_path = args.out_dir + "/" + cfg.name + ".tsoflat";
    ctx->pack_path = args.out_dir + "/" + cfg.name + ".tsopack";
    return ctx;
  };

  if (args.trace == 0) {
    std::unique_ptr<Context> ctx = make_context(args.seconds);
    RunPass(*ctx, false);
    for (const char* name : kInformational) {
      std::printf("info   %-26s %.6g %s\n", name, ctx->e2e.Get(name),
                  ctx->e2e.Unit(name).c_str());
    }
    PrintResult(*ctx, ctx->e2e, kEndToEnd, std::size(kEndToEnd));
    return 0;
  }

  // Traced run: an untraced half, then a traced half; the difference in
  // their end-to-end numbers is the tracing overhead.
  std::printf("== untraced half\n");
  std::unique_ptr<Context> plain = make_context(args.seconds / 2);
  RunPass(*plain, false);
  std::printf("== traced half\n");
  std::unique_ptr<Context> traced = make_context(args.seconds / 2);
  RunPass(*traced, true);
  PrintLayerTable();
  std::printf("tracing overhead (traced vs untraced half):\n");
  for (const MetricSet::Entry& e : plain->e2e.entries()) {
    const double a = e.value;
    const double b = traced->e2e.Get(e.name);
    std::printf("  %-20s %14.6g %14.6g %+8.1f%%\n", e.name.c_str(), a, b,
                a != 0 ? 100.0 * (b - a) / a : 0.0);
  }
  const std::string trace_path = args.out_dir + "/trace-" + cfg.name + "-" +
                                 std::to_string(args.seed) + ".jsonl";
  std::printf("trace: %zu spans written to %s\n",
              Trace::WriteJsonLines(trace_path), trace_path.c_str());
  traced->tally.Attempt(plain->tally.attempted());
  for (uint64_t i = 0; i < plain->tally.failed(); ++i) {
    traced->tally.Fail("untraced half");
  }
  PrintResult(*traced, traced->layers, kPerLayer, std::size(kPerLayer));
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
