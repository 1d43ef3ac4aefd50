// emap_perfbench: runs one benchmark workload and prints its result.
//
//   emap_perfbench --workload <evaluation|fleet|edge> --seed <n>
//                  --seconds <s> --trace <0|1> [--out <dir>]
//   emap_perfbench --self-test
//
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end metrics; with --trace 1
// the per-layer metrics, and the spans are written to <out>.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "harness.hpp"

namespace perfbench {
int run_self_test();
}

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: emap_perfbench --workload <evaluation|fleet|edge> "
               "--seed <n> --seconds <s> --trace <0|1> [--out <dir>]\n"
               "       emap_perfbench --self-test\n");
  return 2;
}

std::string to_json(const perfbench::RunRecord& record) {
  std::ostringstream out;
  out.precision(17);
  out << "{\"correct\": " << (record.violations.empty() ? "true" : "false")
      << ", \"attempted\": " << record.attempted
      << ", \"failed\": " << record.failed << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, value] : record.metrics) {
    out << (first ? "" : ", ") << "\"" << name << "\": {\"value\": "
        << value.first << ", \"unit\": \"" << value.second << "\"}";
    first = false;
  }
  out << "}}";
  return out.str();
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--self-test") return perfbench::run_self_test();
    if (i + 1 >= argc) return usage();
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return usage();
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args.seconds > 0.0)) return usage();
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return usage();
      args.trace = value == "1";
    } else if (flag == "--out") {
      args.out_dir = value;
    } else {
      return usage();
    }
  }
  if (!have_workload) return usage();

  perfbench::RunRecord record;
  try {
    std::filesystem::create_directories(args.out_dir);
    if (args.workload == "evaluation") {
      record = perfbench::run_evaluation(args);
    } else if (args.workload == "fleet") {
      record = perfbench::run_fleet(args);
    } else if (args.workload == "edge") {
      record = perfbench::run_edge(args);
    } else {
      std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
      return usage();
    }
  } catch (const std::exception& error) {
    std::fprintf(stderr, "benchmark aborted: %s\n", error.what());
    return 1;
  }
  for (const std::string& violation : record.violations) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", violation.c_str());
  }
  const std::string json = to_json(record);
  std::ofstream(args.out_dir + "/" + args.workload + "-seed" +
                std::to_string(args.seed) + (args.trace ? "-trace" : "") +
                ".json")
      << json << "\n";
  std::printf("%s\n", json.c_str());
  return 0;
}
