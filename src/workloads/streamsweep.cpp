// STREAM/latency sweep kernels: the bandwidth (copy/scale/add/triad) and
// dependent-load latency workloads the stream_sweep / latency_sweep
// scenarios run at every working-set size. Trace generation is a pure
// function of the parameters — no entropy, no host state — so the
// scenarios' golden hashes pin the whole pipeline from generator to
// modeled timing.

#include "workloads/streamsweep.hpp"

#include <numeric>

#include "common/contracts.hpp"
#include "common/rng.hpp"

namespace easydram::workloads {
namespace {

constexpr std::uint64_t kLine = 64;

/// Marker record: the core drains outstanding work and snapshots its cycle
/// counter — the measurement window boundaries of both sweep kernels.
cpu::TraceRecord marker_record() { return {cpu::Op::kMarker, 0}; }

void emit_stream_pass(std::vector<cpu::TraceRecord>& out,
                      const StreamSweepParams& p) {
  const std::uint64_t lines = stream_lines_per_array(p);
  const std::uint64_t stride = lines * kLine;
  const std::uint64_t a = p.base_addr;
  const std::uint64_t c = p.base_addr + stride;
  const std::uint64_t d = p.base_addr + 2 * stride;
  for (std::uint64_t i = 0; i < lines; ++i) {
    const std::uint64_t off = i * kLine;
    switch (p.kernel) {
      case StreamKernel::kCopy:  // b[i] = a[i]
        out.emplace_back(cpu::Op::kLoad, a + off, 2);
        out.emplace_back(cpu::Op::kStore, c + off, 2);
        break;
      case StreamKernel::kScale:  // b[i] = s * a[i]: one extra multiply.
        out.emplace_back(cpu::Op::kLoad, a + off, 2);
        out.emplace_back(cpu::Op::kStore, c + off, 3);
        break;
      case StreamKernel::kAdd:  // c[i] = a[i] + b[i]
        out.emplace_back(cpu::Op::kLoad, a + off, 2);
        out.emplace_back(cpu::Op::kLoad, c + off, 1);
        out.emplace_back(cpu::Op::kStore, d + off, 2);
        break;
      case StreamKernel::kTriad:  // a[i] = b[i] + s * c[i]: add plus multiply.
        out.emplace_back(cpu::Op::kLoad, a + off, 2);
        out.emplace_back(cpu::Op::kLoad, c + off, 1);
        out.emplace_back(cpu::Op::kStore, d + off, 3);
        break;
    }
  }
}

}  // namespace

std::string_view to_string(StreamKernel k) {
  switch (k) {
    case StreamKernel::kCopy: return "copy";
    case StreamKernel::kScale: return "scale";
    case StreamKernel::kAdd: return "add";
    case StreamKernel::kTriad: return "triad";
  }
  return "?";
}

int stream_array_count(StreamKernel k) {
  return (k == StreamKernel::kAdd || k == StreamKernel::kTriad) ? 3 : 2;
}

std::uint64_t stream_lines_per_array(const StreamSweepParams& p) {
  const auto arrays = static_cast<std::uint64_t>(stream_array_count(p.kernel));
  return p.working_set_bytes / arrays / kLine;
}

std::uint64_t stream_records_per_pass(const StreamSweepParams& p) {
  // Every line of every array is touched exactly once per pass: copy/scale
  // do load+store (2 arrays), add/triad do load+load+store (3 arrays).
  const auto arrays = static_cast<std::uint64_t>(stream_array_count(p.kernel));
  return stream_lines_per_array(p) * arrays;
}

std::size_t stream_record_count(const StreamSweepParams& p) {
  const auto passes =
      static_cast<std::uint64_t>(p.warm_passes + p.measured_passes);
  return static_cast<std::size_t>(passes * stream_records_per_pass(p) + 2);
}

std::uint64_t stream_bytes_per_pass(const StreamSweepParams& p) {
  return stream_records_per_pass(p) * kLine;
}

std::vector<cpu::TraceRecord> make_stream_trace(const StreamSweepParams& p) {
  EASYDRAM_EXPECTS(p.warm_passes >= 0 && p.measured_passes > 0);
  EASYDRAM_EXPECTS(stream_lines_per_array(p) >= 1);
  std::vector<cpu::TraceRecord> records;
  records.reserve(stream_record_count(p));
  for (int pass = 0; pass < p.warm_passes; ++pass) emit_stream_pass(records, p);
  records.push_back(marker_record());
  for (int pass = 0; pass < p.measured_passes; ++pass) {
    emit_stream_pass(records, p);
  }
  records.push_back(marker_record());
  EASYDRAM_ENSURES(records.size() == stream_record_count(p));
  return records;
}

std::vector<std::uint64_t> latency_chase_order(std::uint64_t lines,
                                               std::uint64_t seed) {
  EASYDRAM_EXPECTS(lines >= 1);
  // Sattolo's algorithm: restricting each swap partner to j < i yields a
  // uniformly random *cyclic* permutation — one cycle covering every line,
  // so the chase can never fall into a short loop that fits a cache level
  // smaller than the working set.
  std::vector<std::uint64_t> next(lines);
  std::iota(next.begin(), next.end(), 0);
  Xoshiro256ss rng(seed);
  for (std::uint64_t i = lines - 1; i >= 1; --i) {
    const std::uint64_t j = rng.next_below(i);
    std::swap(next[i], next[j]);
  }
  return next;
}

std::uint64_t latency_loads_per_pass(const LatencySweepParams& p) {
  return p.working_set_bytes / kLine;
}

std::size_t latency_record_count(const LatencySweepParams& p) {
  const auto passes =
      static_cast<std::uint64_t>(p.warm_passes + p.measured_passes);
  return static_cast<std::size_t>(passes * latency_loads_per_pass(p) + 2);
}

std::vector<cpu::TraceRecord> make_latency_trace(const LatencySweepParams& p) {
  EASYDRAM_EXPECTS(p.working_set_bytes >= kLine &&
                   p.working_set_bytes % kLine == 0);
  EASYDRAM_EXPECTS(p.warm_passes >= 0 && p.measured_passes > 0);
  const std::uint64_t lines = latency_loads_per_pass(p);
  const std::vector<std::uint64_t> next = latency_chase_order(lines, p.seed);

  std::vector<cpu::TraceRecord> records;
  records.reserve(latency_record_count(p));
  std::uint64_t cur = 0;
  const auto emit_pass = [&] {
    for (std::uint64_t i = 0; i < lines; ++i) {
      cur = next[cur];
      records.emplace_back(cpu::Op::kLoadDependent, p.base_addr + cur * kLine,
                           1);
    }
  };
  for (int pass = 0; pass < p.warm_passes; ++pass) emit_pass();
  records.push_back(marker_record());
  for (int pass = 0; pass < p.measured_passes; ++pass) emit_pass();
  records.push_back(marker_record());
  EASYDRAM_ENSURES(records.size() == latency_record_count(p));
  return records;
}

std::vector<std::uint64_t> sweep_working_sets(std::uint64_t l1_bytes,
                                              std::uint64_t l2_bytes) {
  EASYDRAM_EXPECTS(l1_bytes >= 2 * kLine && l2_bytes >= 4 * l1_bytes);
  return {l1_bytes / 2, l1_bytes,     2 * l1_bytes, l2_bytes / 2,
          l2_bytes,     2 * l2_bytes, 4 * l2_bytes, 8 * l2_bytes};
}

}  // namespace easydram::workloads
