// RowClone end-to-end (§7): allocate rows under the four FPM constraints,
// verify clonable pairs with the PiDRAM-style repeated-copy test, copy a
// 512 KiB array in DRAM, check the data actually moved, and compare the
// measured execution time against the CPU load/store baseline.

#include <cstring>
#include <iostream>

#include "smc/rowclone_alloc.hpp"
#include "sys/system.hpp"
#include "workloads/copyinit.hpp"

using namespace easydram;

int main() {
  std::cout << "RowClone in-DRAM copy example\n=============================\n\n";
  constexpr std::size_t kRows = 64;  // 512 KiB.

  sys::EasyDramSystem sysm(sys::jetson_nano_time_scaling());

  // 1) Allocation: source rows plus verified same-subarray destinations.
  smc::RowClonePairTester tester(sysm.api(), /*trials=*/16);
  smc::RowCloneAllocator alloc(sysm.api(), sysm.clone_map(), tester);
  const auto plan = alloc.plan_copy(kRows);
  int verified = 0;
  for (const auto& e : plan) verified += e.use_rowclone ? 1 : 0;
  std::cout << "Allocated " << kRows << " row pairs; " << verified
            << " verified clonable (" << tester.trials_run()
            << " verification trials run)\n";

  // 2) Fill the source rows with recognizable data (the No-Flush setting:
  //    source data is already resident in DRAM).
  std::vector<std::uint8_t> row_data(8192);
  for (std::size_t r = 0; r < plan.size(); ++r) {
    for (std::size_t i = 0; i < row_data.size(); ++i) {
      row_data[i] = static_cast<std::uint8_t>(r * 31 + i);
    }
    sysm.device().backdoor_write_row(plan[r].src.bank, plan[r].src.row, row_data);
  }

  // 3) Run the copy through the full system.
  workloads::CopyInitParams params;
  params.kind = workloads::CopyInitParams::Kind::kCopy;
  params.use_rowclone = true;
  const smc::LinearMapper mapper(sysm.device().geometry());
  workloads::CopyInitTrace trace(params, mapper, plan, {});
  const cpu::RunResult rc = sysm.run(trace);

  // 4) Verify the destination rows hold the source data.
  int rows_correct = 0;
  std::vector<std::uint8_t> out(8192);
  for (std::size_t r = 0; r < plan.size(); ++r) {
    if (!plan[r].use_rowclone) continue;  // CPU fallback carries no data here.
    bool ok = true;
    for (std::uint32_t col = 0; col < 128 && ok; ++col) {
      std::array<std::uint8_t, 64> got{};
      sysm.device().backdoor_read({plan[r].dst.bank, plan[r].dst.row, col}, got);
      for (std::size_t i = 0; i < 64; ++i) {
        if (got[i] != static_cast<std::uint8_t>(r * 31 + col * 64 + i)) ok = false;
      }
    }
    rows_correct += ok ? 1 : 0;
  }
  std::cout << "In-DRAM copies with bit-exact data: " << rows_correct << "/"
            << verified << "\n";

  // 5) CPU baseline for comparison.
  sys::EasyDramSystem base(sys::jetson_nano_time_scaling());
  workloads::CopyInitParams cpu_params = params;
  cpu_params.use_rowclone = false;
  workloads::CopyInitTrace cpu_trace(cpu_params, mapper, plan, {});
  const cpu::RunResult rcpu = base.run(cpu_trace);

  const auto window = [](const cpu::RunResult& r) {
    return r.markers.size() >= 2 ? r.markers.back() - r.markers.front() : r.cycles;
  };
  std::cout << "RowClone copy: " << window(rc) << " cycles; CPU copy: "
            << window(rcpu) << " cycles; speedup "
            << static_cast<double>(window(rcpu)) / static_cast<double>(window(rc))
            << "x (paper Fig. 10 reports ~13x at this size with time scaling)\n";
  return 0;
}
