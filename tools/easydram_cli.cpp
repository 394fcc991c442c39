// The unified EasyDRAM experiment runner: every paper figure/table
// reproducer and ablation registers itself as a named scenario; this binary
// lists them, runs their seeded sweeps across --threads host threads with
// deterministic per-repetition seeds, and writes machine-readable JSON
// summaries.
//
//   easydram_cli --list
//   easydram_cli --scenario fig13_trcd_speedup --threads 4 --out r.json
//   easydram_cli --scenario quickstart --iters 1
//   easydram_cli --scenario channel_scaling --channels 8 --mapping channel

#include "cli/scenario.hpp"

int main(int argc, char** argv) {
  return easydram::cli::scenario_main(argc, argv);
}
