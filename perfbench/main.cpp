// perfbench: the billed request path of AccTEE, end to end and per layer.
//
//   perfbench round    --workload W --seed S
//       one untraced round (set-up, serve, cold start, audit, checks); prints
//       its end-to-end metrics as one JSON line
//   perfbench trace    --workload W --seed S --seconds T --out-dir D
//       the traced replay; writes spans and a per-layer table under D and
//       prints the per-layer metrics as one JSON line
//   perfbench selftest --workload W --seed S
//       runs a round, then feeds the checks broken copies of its evidence;
//       exits 0 iff the clean round passes and every break is caught
//
// run.py drives these modes; see README.md.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "common.hpp"
#include "rounds.hpp"
#include "traced.hpp"

namespace {

using namespace perfbench;

std::string metrics_json(const std::vector<Metric>& metrics) {
  JsonObject obj;
  for (const Metric& m : metrics) {
    JsonObject value;
    value.number("value", m.value);
    value.string("unit", m.unit);
    obj.raw(m.name, value.str());
  }
  return obj.str();
}

void print_result(const RoundOutput& out) {
  JsonObject obj;
  obj.boolean("correct", out.problems.ok());
  obj.strings("problems", out.problems.shown());
  obj.number("attempted", static_cast<double>(out.attempted));
  obj.number("failed", static_cast<double>(out.failed));
  obj.raw("metrics", metrics_json(out.metrics));
  obj.raw("reference", metrics_json(out.reference));
  std::printf("%s\n", obj.str().c_str());
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench round|trace|selftest --workload "
               "echo_billed|resize_billed|polybench_cold --seed N "
               "[--seconds T] [--out-dir DIR]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const Clock::time_point process_start = Clock::now();
  if (argc < 2) return usage();
  const std::string mode = argv[1];
  Workload workload = Workload::EchoBilled;
  bool have_workload = false;
  uint64_t seed = 0;
  std::string out_dir = ".";
  double seconds = 1;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      have_workload = parse_workload(value, &workload);
    } else if (flag == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::strtod(value, nullptr);
    } else if (flag == "--out-dir") {
      out_dir = value;
    } else {
      return usage();
    }
  }
  if (!have_workload ||
      (mode != "round" && mode != "trace" && mode != "selftest")) {
    return usage();
  }

  if (mode == "selftest") {
    bool ok = false;
    try {
      bool breaks_caught = false;
      RoundOutput clean =
          run_round(workload, seed, process_start, &breaks_caught);
      ok = clean.problems.ok() && breaks_caught;
    } catch (const std::exception& error) {
      std::fprintf(stderr, "selftest: round aborted: %s\n", error.what());
    }
    std::printf("{\"selftest\": %s}\n", ok ? "true" : "false");
    return ok ? 0 : 1;
  }
  RoundOutput out;
  try {
    out = mode == "trace" ? run_traced(workload, seed, seconds, out_dir)
                          : run_round(workload, seed, process_start);
  } catch (const std::exception& error) {
    // An aborted round bills nothing: every operation of it failed.
    out.problems.add(std::string("round aborted: ") + error.what());
    out.attempted = out.failed =
        mode == "trace" ? 1 : round_operations(workload);
  }
  print_result(out);
  return 0;
}
