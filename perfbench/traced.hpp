// The traced run: a sample of the workload's requests replayed one at a
// time through the same public calls, with a span around each call.
#pragma once

#include <string>

#include "inputs.hpp"
#include "rounds.hpp"

namespace perfbench {

/// Sets up as an untraced round of `seed` does, runs a slice of the stream
/// through the gateway, then replays a sample in pairs of passes (span
/// recording off, then on) for at least `seconds`. Writes
/// <out_dir>/<workload>-seed<seed>.spans.jsonl and .layers.txt and returns
/// the per-layer metrics.
RoundOutput run_traced(Workload workload, uint64_t seed, double seconds,
                       const std::string& out_dir);

}  // namespace perfbench
