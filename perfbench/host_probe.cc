#include "host_probe.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <queue>
#include <thread>

#include "mirror.h"

namespace perfbench {
namespace {

constexpr int kHeapKeys = 4096;  // 32 KiB of keys
constexpr int kHeapSteps = 30000;
constexpr std::size_t kCopyBytes = std::size_t{2} << 20;
constexpr int kCopies = 4;

uint64_t xorshift(uint64_t& s) {
  s ^= s << 13;
  s ^= s >> 7;
  s ^= s << 17;
  return s;
}

// Each returns a value the compiler cannot drop.
uint64_t compute_work() {
  uint64_t s = 0x9e3779b97f4a7c15ull;
  std::priority_queue<uint64_t> heap;
  for (int i = 0; i < kHeapKeys; ++i) heap.push(xorshift(s));
  uint64_t acc = 0;
  for (int i = 0; i < kHeapSteps; ++i) {
    acc += heap.top();
    heap.pop();
    heap.push(xorshift(s));
  }
  return acc;
}

uint64_t memory_work() {
  static std::vector<char> src(kCopyBytes, 1), dst(kCopyBytes);
  for (int k = 0; k < kCopies; ++k) {
    std::memcpy(dst.data(), src.data(), kCopyBytes);
    src[static_cast<std::size_t>(k)] = dst[kCopyBytes - 1 - k];
  }
  return static_cast<uint64_t>(dst[kCopyBytes / 2]);
}

}  // namespace

HostProbe::HostProbe(Kind kind, int threads)
    : kind_(kind), threads_(kind == Kind::kMemory ? 1 : std::max(1, threads)) {}

void HostProbe::sample() {
  static std::atomic<uint64_t> sink;
  auto* work = kind_ == Kind::kCompute ? compute_work : memory_work;
  if (threads_ == 1) {
    const int64_t t0 = now_ns();
    sink.store(work(), std::memory_order_relaxed);
    seconds_.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
    return;
  }
  // Each thread times its own copy. A threaded leg hands out its
  // connections dynamically, so its rate is the sum of the threads'
  // rates; the probe's time is the harmonic mean of the threads' times,
  // the time per copy at that summed rate.
  std::vector<double> secs(static_cast<std::size_t>(threads_));
  std::vector<std::thread> pool;
  for (auto& out : secs) {
    pool.emplace_back([work, &out] {
      const int64_t t0 = now_ns();
      sink.store(work(), std::memory_order_relaxed);
      out = static_cast<double>(now_ns() - t0) * 1e-9;
    });
  }
  for (auto& th : pool) th.join();
  double rate = 0;
  for (const double x : secs) rate += 1.0 / x;
  seconds_.push_back(static_cast<double>(threads_) / rate);
}

double HostProbe::median_seconds() const {
  if (seconds_.empty()) return nominal_seconds();
  std::vector<double> v = seconds_;
  const auto mid = v.begin() + static_cast<std::ptrdiff_t>(v.size() / 2);
  std::nth_element(v.begin(), mid, v.end());
  return *mid;
}

double HostProbe::nominal_seconds() const {
  return kind_ == Kind::kCompute ? 1.6e-3 : 1.0e-3;
}

}  // namespace perfbench
