// Seeded inputs of the three workloads and the independent references
// their outputs are checked against.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "faas/sharded_gateway.hpp"
#include "instrument/passes.hpp"
#include "interp/compiled_module.hpp"
#include "wasm/ast.hpp"

namespace perfbench {

using acctee::Bytes;

enum class Workload { EchoBilled, ResizeBilled, PolybenchCold };

bool parse_workload(const std::string& name, Workload* out);
const char* workload_name(Workload w);

/// Instrumentation policy shared by every workload: loop-based pass, unit
/// weights, the full verified middle-end.
acctee::instrument::InstrumentOptions instrument_options();

/// One gateway round's requests plus what each response must be.
struct GatewayInputs {
  std::vector<acctee::faas::Request> requests;
  /// The response each request must produce, computed by the benchmark
  /// (echo: the input; resize: reference_resize of the input).
  std::vector<Bytes> expected;
  /// Indices into `requests` of the inputs the round cold-starts the
  /// function on, in stream order.
  std::vector<size_t> cold_starts;
};

/// The shard a tenant's requests route to (the deployed gateway's
/// shard_for).
using Router = std::function<size_t(const std::string&)>;

/// Both gateway streams are balanced over the kShards shards: every shard
/// gets the same number of tenants, kRequestsPerTenant requests each, and
/// the same multiset of input sizes, so a round's work and its split over
/// the workers do not depend on the seed. The seed draws the tenant names,
/// the payload bytes and the order.
///
/// echo_billed: kEchoRequests requests of 256..4096 random bytes (sizes
/// stratified over that range); the first kEchoColdStarts are cold-started.
GatewayInputs make_echo_inputs(uint64_t seed, const Router& shard_of);
/// resize_billed: square RGB images, every side of kResizeSides equally
/// often on every shard; kResizeColdStartsPerSide of each side are
/// cold-started.
GatewayInputs make_resize_inputs(uint64_t seed, const Router& shard_of);

inline constexpr uint32_t kShards = 2;  // one worker each
inline constexpr size_t kRequestsPerTenant = 2;
inline constexpr size_t kEchoRequests = 512;
inline constexpr size_t kEchoColdStarts = 32;
inline constexpr uint32_t kResizeSides[] = {64, 80, 96, 112, 128, 144, 160};
inline constexpr size_t kResizeSideCount =
    sizeof(kResizeSides) / sizeof(kResizeSides[0]);
/// 7 images of each side per shard.
inline constexpr size_t kResizeRequests = kShards * kResizeSideCount * 7;
inline constexpr size_t kResizeColdStartsPerSide = 2;

/// One module of the polybench_cold stream.
struct ModuleInput {
  std::string kernel;
  uint32_t n = 0;
  std::string tenant;
  Bytes binary;  // uninstrumented Wasm binary
};

/// Every PolyBench kernel at each problem size of kPolybenchSizes, in
/// seeded order.
std::vector<ModuleInput> make_polybench_inputs(uint64_t seed);

inline constexpr uint32_t kPolybenchSizes[] = {6, 10, 14};
inline constexpr size_t kPolybenchSizesPerKernel =
    sizeof(kPolybenchSizes) / sizeof(kPolybenchSizes[0]);

/// Independent C++ reference of faas_resize: 16.16 fixed-point bilinear
/// resample of an 8-byte-header raw RGB image to 64x64x3, written from the
/// function's specification, not from its Wasm.
Bytes reference_resize(const Bytes& image);

/// The uninstrumented module run in a plain interp::Instance: the ground
/// truth for billed weighted instructions and for results.
struct PlainRun {
  uint64_t weighted = 0;  // ExecStats::weighted under instrument_options()
  std::vector<uint64_t> result_bits;  // raw bits of the entry's results
};

struct PlainJob {
  acctee::interp::CompiledModulePtr module;  // uninstrumented
  const Bytes* input = nullptr;
};

/// Runs `job(i)` for every i < n on a few threads (the checks run after the
/// measured phases, so they may use the whole machine).
std::vector<PlainRun> plain_runs(size_t n,
                                 const std::function<PlainJob(size_t)>& job);

/// Number of interim logs an accounting enclave with `interval` emits for
/// one run of `instrumented` on `input`: the checkpoint callbacks of a plain
/// instance over the same instrumented module.
uint64_t count_checkpoints(const acctee::interp::CompiledModulePtr& instrumented,
                           uint64_t interval, const Bytes& input);

}  // namespace perfbench
