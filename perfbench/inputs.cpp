#include "inputs.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <exception>
#include <map>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>

#include "common.hpp"
#include "core/runtime_env.hpp"
#include "interp/instance.hpp"
#include "wasm/binary.hpp"
#include "workloads/polybench.hpp"

namespace perfbench {

using namespace acctee;

bool parse_workload(const std::string& name, Workload* out) {
  for (Workload w : {Workload::EchoBilled, Workload::ResizeBilled,
                     Workload::PolybenchCold}) {
    if (name == workload_name(w)) {
      *out = w;
      return true;
    }
  }
  return false;
}

const char* workload_name(Workload w) {
  switch (w) {
    case Workload::EchoBilled: return "echo_billed";
    case Workload::ResizeBilled: return "resize_billed";
    case Workload::PolybenchCold: return "polybench_cold";
  }
  return "?";
}

instrument::InstrumentOptions instrument_options() {
  instrument::InstrumentOptions options;
  options.pass = instrument::PassKind::LoopBased;
  options.weights = instrument::WeightTable::unit();
  options.opt_level = 3;  // analysis::opt::kMaxOptLevel
  return options;
}

namespace {

/// A stream balanced over the shards: each shard gets `tenants_per_shard`
/// distinct tenants that route to it, kRequestsPerTenant requests each, and
/// one request of every size in `sizes` (so sizes.size() ==
/// tenants_per_shard * kRequestsPerTenant). Returns (tenant, size) per
/// request, in seeded order.
std::vector<std::pair<std::string, size_t>> balanced_stream(
    Rng& rng, const Router& shard_of, size_t tenants_per_shard,
    const std::vector<size_t>& sizes) {
  std::set<std::string> seen;
  std::vector<std::vector<std::string>> names(kShards);
  size_t full = 0;
  while (full < kShards) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "tenant-%010llx",
                  static_cast<unsigned long long>(rng.next() >> 24));
    std::vector<std::string>& shard = names[shard_of(buf)];
    if (shard.size() < tenants_per_shard && seen.insert(buf).second) {
      shard.emplace_back(buf);
      if (shard.size() == tenants_per_shard) ++full;
    }
  }
  std::vector<std::pair<std::string, size_t>> stream;
  for (const std::vector<std::string>& shard : names) {
    std::vector<size_t> shard_sizes = sizes;
    shuffle(shard_sizes, rng);
    for (size_t i = 0; i < shard_sizes.size(); ++i) {
      stream.emplace_back(shard[i / kRequestsPerTenant], shard_sizes[i]);
    }
  }
  shuffle(stream, rng);
  return stream;
}

Bytes random_bytes(Rng& rng, size_t n) {
  Bytes out(n);
  for (size_t i = 0; i < n; i += 8) {
    uint64_t v = rng.next();
    for (size_t b = 0; b < 8 && i + b < n; ++b) {
      out[i + b] = static_cast<uint8_t>(v >> (8 * b));
    }
  }
  return out;
}

}  // namespace

GatewayInputs make_echo_inputs(uint64_t seed, const Router& shard_of) {
  Rng rng(seed);
  GatewayInputs in;
  // One size per stratum of [256, 4096], the same strata on every shard.
  constexpr size_t kPerShard = kEchoRequests / kShards;
  constexpr size_t kSpan = 4096 - 256 + 1;
  std::vector<size_t> sizes;
  for (size_t k = 0; k < kPerShard; ++k) {
    sizes.push_back(256 + (k * kSpan + rng.below(kSpan)) / kPerShard);
  }
  for (auto& [tenant, size] : balanced_stream(
           rng, shard_of, kPerShard / kRequestsPerTenant, sizes)) {
    Bytes body = random_bytes(rng, size);
    in.expected.push_back(body);
    in.requests.push_back(faas::Request{std::move(tenant), std::move(body)});
  }
  for (size_t i = 0; i < kEchoColdStarts; ++i) in.cold_starts.push_back(i);
  return in;
}

GatewayInputs make_resize_inputs(uint64_t seed, const Router& shard_of) {
  Rng rng(seed);
  GatewayInputs in;
  constexpr size_t kPerShard = kResizeRequests / kShards;
  std::vector<size_t> sides;
  for (size_t k = 0; k < kPerShard; ++k) {
    sides.push_back(kResizeSides[k % kResizeSideCount]);
  }
  std::map<size_t, size_t> cold_left;
  for (uint32_t side : kResizeSides) cold_left[side] = kResizeColdStartsPerSide;
  for (auto& [tenant, side] : balanced_stream(
           rng, shard_of, kPerShard / kRequestsPerTenant, sides)) {
    if (cold_left[side] > 0) {
      --cold_left[side];
      in.cold_starts.push_back(in.requests.size());
    }
    Bytes image;
    append_u32le(image, static_cast<uint32_t>(side));
    append_u32le(image, static_cast<uint32_t>(side));
    Bytes pixels = random_bytes(rng, side * side * 3);
    image.insert(image.end(), pixels.begin(), pixels.end());
    in.expected.push_back(reference_resize(image));
    in.requests.push_back(faas::Request{std::move(tenant), std::move(image)});
  }
  return in;
}

std::vector<ModuleInput> make_polybench_inputs(uint64_t seed) {
  Rng rng(seed);
  std::vector<ModuleInput> modules;
  for (const workloads::KernelFactory& kernel : workloads::polybench()) {
    for (uint32_t n : kPolybenchSizes) {
      ModuleInput m;
      m.kernel = kernel.name;
      m.n = n;
      m.tenant = "tenant-" + kernel.name;
      m.binary = wasm::encode(kernel.build(n));
      modules.push_back(std::move(m));
    }
  }
  shuffle(modules, rng);
  return modules;
}

Bytes reference_resize(const Bytes& image) {
  if (image.size() < 8) throw std::invalid_argument("resize: short image");
  auto u32 = [&](size_t off) {
    return static_cast<uint32_t>(image[off]) |
           static_cast<uint32_t>(image[off + 1]) << 8 |
           static_cast<uint32_t>(image[off + 2]) << 16 |
           static_cast<uint32_t>(image[off + 3]) << 24;
  };
  const int64_t w = u32(0);
  const int64_t h = u32(4);
  constexpr int64_t kSide = 64;
  // Source pixel (x, y, c). A tap one past the last row or column is only
  // ever read with a zero weight, so its value cannot reach the output.
  auto src = [&](int64_t x, int64_t y, int64_t c) -> int32_t {
    size_t off = 8 + static_cast<size_t>((y * w + x) * 3 + c);
    return off < image.size() ? image[off] : 0;
  };
  // 16.16 fixed-point steps so that output pixel 63 lands on source pixel
  // w-1 (truncating division, as the function computes them).
  const int64_t xstep = (w - 1) * 65536 / (kSide - 1);
  const int64_t ystep = (h - 1) * 65536 / (kSide - 1);
  Bytes out(kSide * kSide * 3);
  for (int64_t oy = 0; oy < kSide; ++oy) {
    const int64_t sy = oy * ystep;
    const int64_t y0 = sy >> 16;
    const int32_t fy = static_cast<int32_t>(sy & 0xffff);
    for (int64_t ox = 0; ox < kSide; ++ox) {
      const int64_t sx = ox * xstep;
      const int64_t x0 = sx >> 16;
      const int32_t fx = static_cast<int32_t>(sx & 0xffff);
      for (int64_t c = 0; c < 3; ++c) {
        // Interpolate along x on both rows, then along y; each product is
        // shifted arithmetically, so negative differences round down.
        const int32_t p00 = src(x0, y0, c), p01 = src(x0 + 1, y0, c);
        const int32_t p10 = src(x0, y0 + 1, c), p11 = src(x0 + 1, y0 + 1, c);
        const int32_t top = p00 + (((p01 - p00) * fx) >> 16);
        const int32_t bot = p10 + (((p11 - p10) * fx) >> 16);
        out[static_cast<size_t>((oy * kSide + ox) * 3 + c)] =
            static_cast<uint8_t>(top + (((bot - top) * fy) >> 16));
      }
    }
  }
  return out;
}

namespace {

void work(size_t n, std::atomic<size_t>& next,
          const std::function<PlainJob(size_t)>& job,
          std::vector<PlainRun>& runs) {
  for (size_t i = next++; i < n; i = next++) {
    PlainJob j = job(i);
    core::IoChannel channel;
    channel.input = *j.input;
    interp::Instance::Options options;
    options.cache_model = false;  // per-opcode counts do not depend on it
    interp::Instance instance(j.module, core::make_runtime_env(&channel),
                              options);
    for (const interp::TypedValue& v : instance.invoke("run")) {
      runs[i].result_bits.push_back(v.bits);
    }
    runs[i].weighted =
        instance.stats().weighted(instrument_options().weights.raw());
  }
}

}  // namespace

std::vector<PlainRun> plain_runs(size_t n,
                                 const std::function<PlainJob(size_t)>& job) {
  std::vector<PlainRun> runs(n);
  std::atomic<size_t> next{0};
  std::mutex error_mutex;
  std::exception_ptr error;
  auto worker = [&] {
    try {
      work(n, next, job, runs);
    } catch (...) {
      std::lock_guard<std::mutex> lock(error_mutex);
      if (!error) error = std::current_exception();
      next = n;  // the other threads stop too
    }
  };
  const unsigned threads =
      std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
  std::vector<std::thread> pool;
  for (unsigned t = 1; t < threads; ++t) pool.emplace_back(worker);
  worker();
  for (std::thread& t : pool) t.join();
  if (error) std::rethrow_exception(error);
  return runs;
}

uint64_t count_checkpoints(const interp::CompiledModulePtr& instrumented,
                           uint64_t interval, const Bytes& input) {
  core::IoChannel channel;
  channel.input = input;
  interp::Instance::Options options;
  options.cache_model = false;
  interp::Instance instance(instrumented, core::make_runtime_env(&channel),
                            options);
  uint64_t count = 0;
  instance.set_checkpoint(interval, [&](interp::Instance&) { ++count; });
  instance.invoke("run");
  return count;
}

}  // namespace perfbench
