#include "cli/scenario.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <optional>
#include <thread>

#include "cli/perf.hpp"
#include "common/contracts.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"

namespace easydram::cli {

// Registration hooks, one per scenario translation unit (see the
// scenarios_*.cpp files). Called explicitly from the registry constructor
// so a static-library link cannot drop them.
void register_system_scenarios(ScenarioRegistry& r);
void register_rowclone_scenarios(ScenarioRegistry& r);
void register_trcd_scenarios(ScenarioRegistry& r);
void register_validation_scenarios(ScenarioRegistry& r);
void register_memsys_scenarios(ScenarioRegistry& r);
void register_rowhammer_scenarios(ScenarioRegistry& r);
void register_refresh_scenarios(ScenarioRegistry& r);
void register_faults_scenarios(ScenarioRegistry& r);
void register_qos_scenarios(ScenarioRegistry& r);
void register_streamsweep_scenarios(ScenarioRegistry& r);

std::uint64_t rep_seed(const RunOptions& opts, int rep) {
  EASYDRAM_EXPECTS(rep >= 0);
  return rep == 0 ? opts.seed
                  : hash_mix(opts.seed, static_cast<std::uint64_t>(rep));
}

Json rep_metric_json(std::span<const double> per_rep) {
  Json j = Json::object();
  Json values = Json::array();
  for (double v : per_rep) values.push_back(v);
  j["per_rep"] = std::move(values);
  j["mean"] = mean(per_rep);
  j["stddev"] = stddev(per_rep);
  j["p50"] = p50(per_rep);
  j["p95"] = p95(per_rep);
  return j;
}

void run_tasks(int threads, std::size_t n,
               const std::function<void(std::size_t)>& task) {
  EASYDRAM_EXPECTS(threads >= 1);
  std::vector<std::exception_ptr> errors(n);
  std::atomic<std::size_t> next{0};
  auto drain = [&] {
    for (std::size_t i = next++; i < n; i = next++) {
      try {
        task(i);
      } catch (...) {
        errors[i] = std::current_exception();
      }
    }
  };
  const std::size_t workers = std::min(static_cast<std::size_t>(threads), n);
  if (workers <= 1) {
    drain();
  } else {
    // jthreads join on destruction, also when a later thread fails to start.
    std::vector<std::jthread> pool;
    pool.reserve(workers);
    for (std::size_t t = 0; t < workers; ++t) pool.emplace_back(drain);
  }
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

ScenarioRegistry& ScenarioRegistry::instance() {
  static ScenarioRegistry registry;
  return registry;
}

ScenarioRegistry::ScenarioRegistry() {
  register_system_scenarios(*this);
  register_rowclone_scenarios(*this);
  register_trcd_scenarios(*this);
  register_validation_scenarios(*this);
  register_memsys_scenarios(*this);
  register_rowhammer_scenarios(*this);
  register_refresh_scenarios(*this);
  register_faults_scenarios(*this);
  register_qos_scenarios(*this);
  register_streamsweep_scenarios(*this);
  std::sort(scenarios_.begin(), scenarios_.end(),
            [](const Scenario& a, const Scenario& b) { return a.name < b.name; });
}

void ScenarioRegistry::add(const Scenario& s) {
  EASYDRAM_EXPECTS(s.run != nullptr && !s.name.empty());
  EASYDRAM_EXPECTS(find(s.name) == nullptr);
  scenarios_.push_back(s);
}

const Scenario* ScenarioRegistry::find(std::string_view name) const {
  for (const Scenario& s : scenarios_) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

Json run_scenario(const Scenario& s, const RunOptions& opts) {
  Json j = Json::object();
  j["scenario"] = s.name;
  j["paper_ref"] = s.paper_ref;
  j["seed"] = opts.seed;
  j["iters"] = opts.iters;
  j["threads"] = opts.threads;
  j["channels"] = static_cast<std::int64_t>(opts.channels);
  j["ranks"] = static_cast<std::int64_t>(opts.ranks);
  j["mapping"] = smc::to_string(opts.mapping);
  // Only when forced: the key's absence keeps pre---sched run documents
  // (and their golden hashes) byte-identical.
  if (opts.sched.has_value()) j["sched"] = smc::to_string(*opts.sched);
  j["results"] = s.run(opts);
  return j;
}

std::vector<std::string> print_scenario(std::ostream& os, const Scenario& s,
                                        const Json& run_doc) {
  os << "\n=== " << s.summary << " ===\nReproduces: " << s.paper_ref << "\n\n";
  const Json* results = run_doc.find("results");
  if (results == nullptr) return {"results"};
  std::vector<std::string> missing;
  for (const TableSpec& t : s.tables) {
    for (std::string& m : print_table(os, t, *results)) {
      missing.push_back(std::move(m));
    }
  }
  if (!s.claim.empty()) os << s.claim << '\n';
  return missing;
}

namespace {

struct ParsedArgs {
  RunOptions opts;
  std::vector<std::string> scenarios;
  std::string out_path;
  bool list = false;
  bool help = false;
  bool quiet = false;  ///< Skip the human-readable tables.
  bool perf = false;
  int perf_reps = 3;
  int perf_warmup = 1;
  double perf_scale = 1.0;
  std::string error;
};

std::optional<long long> parse_int(const char* text) {
  char* end = nullptr;
  const long long v = std::strtoll(text, &end, 0);
  if (end == text || *end != '\0') return std::nullopt;
  return v;
}

ParsedArgs parse_args(int argc, char** argv) {
  ParsedArgs a;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        a.error = "missing value for " + std::string(arg);
        return nullptr;
      }
      return argv[++i];
    };
    if (arg == "--help" || arg == "-h") {
      a.help = true;
    } else if (arg == "--list") {
      a.list = true;
    } else if (arg == "--quiet" || arg == "-q") {
      a.quiet = true;
    } else if (arg == "--scenario") {
      if (const char* v = value()) a.scenarios.emplace_back(v);
    } else if (arg == "--out") {
      if (const char* v = value()) a.out_path = v;
    } else if (arg == "--seed") {
      if (const char* v = value()) {
        char* end = nullptr;
        a.opts.seed = std::strtoull(v, &end, 0);
        if (end == v || *end != '\0') a.error = "bad --seed value";
      }
    } else if (arg == "--iters") {
      if (const char* v = value()) {
        const auto n = parse_int(v);
        if (!n || *n < 1 || *n > 1'000'000) {
          a.error = "bad --iters value (need 1 .. 1000000)";
        } else {
          a.opts.iters = static_cast<int>(*n);
        }
      }
    } else if (arg == "--threads") {
      if (const char* v = value()) {
        const auto n = parse_int(v);
        if (!n || *n < 1 || *n > 1024) a.error = "bad --threads value";
        else a.opts.threads = static_cast<int>(*n);
      }
    } else if (arg == "--channels") {
      if (const char* v = value()) {
        const auto n = parse_int(v);
        if (!n || *n < 1 || *n > 64) a.error = "bad --channels value (need 1 .. 64)";
        else a.opts.channels = static_cast<std::uint32_t>(*n);
      }
    } else if (arg == "--ranks") {
      if (const char* v = value()) {
        const auto n = parse_int(v);
        if (!n || *n < 1 || *n > 16) a.error = "bad --ranks value (need 1 .. 16)";
        else a.opts.ranks = static_cast<std::uint32_t>(*n);
      }
    } else if (arg == "--mapping") {
      if (const char* v = value()) {
        const auto kind = smc::parse_mapping(v);
        if (!kind) {
          a.error = "bad --mapping value (linear | line | channel | bankpart)";
        } else {
          a.opts.mapping = *kind;
        }
      }
    } else if (arg == "--sched") {
      if (const char* v = value()) {
        const auto kind = smc::parse_scheduler(v);
        if (!kind) {
          a.error =
              "bad --sched value (auto | fcfs | frfcfs | parbs | bliss | "
              "atlas | tcm)";
        } else {
          a.opts.sched = *kind;
        }
      }
    } else if (arg == "--perf") {
      a.perf = true;
    } else if (arg == "--perf-reps") {
      if (const char* v = value()) {
        const auto n = parse_int(v);
        if (!n || *n < 1 || *n > 1000) a.error = "bad --perf-reps value";
        else a.perf_reps = static_cast<int>(*n);
      }
    } else if (arg == "--perf-warmup") {
      if (const char* v = value()) {
        const auto n = parse_int(v);
        if (!n || *n < 0 || *n > 100) {
          a.error = "bad --perf-warmup value (need 0 .. 100)";
        } else {
          a.perf_warmup = static_cast<int>(*n);
        }
      }
    } else if (arg == "--perf-scale") {
      if (const char* v = value()) {
        char* end = nullptr;
        const double s = std::strtod(v, &end);
        if (end == v || *end != '\0' || !(s > 0.0) || s > 1000.0) {
          a.error = "bad --perf-scale value (need 0 < scale <= 1000)";
        } else {
          a.perf_scale = s;
        }
      }
    } else {
      a.error = "unknown argument: " + std::string(arg);
    }
    if (!a.error.empty()) break;
  }
  return a;
}

void print_usage(std::ostream& os, const char* prog) {
  os << "Usage: " << prog
     << " [--scenario NAME]... [--list] [--seed N] [--iters N]\n"
        "       [--threads N] [--channels N] [--ranks N]\n"
        "       [--mapping KIND] [--sched POLICY] [--perf] [--perf-reps N]\n"
        "       [--perf-warmup N] [--perf-scale X]\n"
        "       [--out results.json] [--quiet] [--help]\n\n"
        "Runs EasyDRAM experiment scenarios (paper figure/table reproducers\n"
        "and ablations) and emits machine-readable JSON summaries.\n\n"
        "  --scenario NAME  scenario to run (repeatable; see --list)\n"
        "  --list           list registered scenarios and exit\n"
        "  --seed N         base RNG seed for the synthetic DRAM chip\n"
        "  --iters N        independent repetitions (per-rep seed streams)\n"
        "  --threads N      host threads running independent sweep tasks\n"
        "                   (results are identical at any count)\n"
        "  --channels N     memory channels (memory-system scenarios)\n"
        "  --ranks N        ranks per channel (memory-system scenarios)\n"
        "  --mapping KIND   address mapping: linear | line | channel |\n"
        "                   bankpart (static per-tenant bank partitions)\n"
        "  --sched POLICY   force a scheduling policy: auto | fcfs | frfcfs\n"
        "                   | parbs | bliss | atlas | tcm (default: each\n"
        "                   scenario's validated policy; qos_* scenarios\n"
        "                   restrict their policy sweep to POLICY)\n"
        "  --perf           run the host-performance harness instead\n"
        "  --perf-reps N    measured repetitions per perf bench (default 3)\n"
        "  --perf-warmup N  warmup repetitions discarded before the measured\n"
        "                   ones (default 1; see docs/bench.md)\n"
        "  --perf-scale X   multiplier on the ECC and QoS burst sizes\n"
        "                   (scenario benches always run whole)\n"
        "  --out PATH       write the JSON summary to PATH\n"
        "  --quiet          print no human-readable tables (each is drawn\n"
        "                   from the JSON results; see docs/scenarios.md)\n\n"
        "The paper scenarios always run the validated 1-channel/1-rank\n"
        "geometry; --channels/--ranks/--mapping shape the memory-system\n"
        "scenarios (channel_scaling, rank_interleaving).\n\n"
        "--perf times the simulator on the host clock: Fig. 14, the\n"
        "subsystem overheads and the working-set sweeps (e2ebench/ times\n"
        "end-to-end workloads, bench_micro hot paths). It writes the\n"
        "BENCH_results.json perf-trajectory document to --out; with --perf,\n"
        "--scenario filters the perf benches by name.\n";
}

void print_list(std::ostream& os) {
  for (const Scenario& s : ScenarioRegistry::instance().all()) {
    os << s.name << "\n    " << s.summary << " [" << s.paper_ref << "]\n";
  }
}

}  // namespace

int scenario_main(int argc, char** argv) {
  const char* prog = argc > 0 ? argv[0] : "easydram_cli";
  ParsedArgs a = parse_args(argc, argv);
  if (!a.error.empty()) {
    std::cerr << prog << ": " << a.error << "\n";
    print_usage(std::cerr, prog);
    return 2;
  }
  if (a.help) {
    print_usage(std::cout, prog);
    std::cout << "\nScenarios:\n";
    print_list(std::cout);
    return 0;
  }
  if (a.list) {
    print_list(std::cout);
    if (a.perf) {
      std::cout << "\nPerf benches (--perf):\n";
      list_perf_benches(std::cout);
    }
    return 0;
  }

  if (a.perf) {
    PerfOptions popts;
    popts.run = a.opts;
    popts.reps = a.perf_reps;
    popts.warmup = a.perf_warmup;
    popts.scale = a.perf_scale;
    popts.only = a.scenarios;
    std::vector<PerfBenchOutcome> outcomes;
    try {
      outcomes = run_perf_benches(popts);
    } catch (const std::exception& e) {
      std::cerr << prog << ": " << e.what() << "\n";
      return 2;
    }
    const Json doc = perf_results_json(popts, outcomes);
    if (!a.quiet) print_perf_table(std::cout, doc);
    if (!a.out_path.empty()) {
      std::ofstream out(a.out_path);
      if (!out) {
        std::cerr << prog << ": cannot open " << a.out_path
                  << " for writing\n";
        return 1;
      }
      out << doc.dump_string();
      if (!a.quiet) {
        std::cout << "\nWrote perf results to " << a.out_path << "\n";
      }
    }
    return 0;
  }

  const std::vector<std::string>& names = a.scenarios;
  if (names.empty()) {
    std::cerr << prog << ": no --scenario given\n\n";
    print_usage(std::cerr, prog);
    std::cerr << "\nScenarios:\n";
    print_list(std::cerr);
    return 2;
  }

  std::vector<Json> run_docs;
  for (const std::string& name : names) {
    const Scenario* s = ScenarioRegistry::instance().find(name);
    if (s == nullptr) {
      std::cerr << prog << ": unknown scenario '" << name
                << "' (use --list)\n";
      return 2;
    }
    run_docs.push_back(run_scenario(*s, a.opts));
    if (!a.quiet) print_scenario(std::cout, *s, run_docs.back());
  }

  if (!a.out_path.empty()) {
    std::ofstream out(a.out_path);
    if (!out) {
      std::cerr << prog << ": cannot open " << a.out_path << " for writing\n";
      return 1;
    }
    // A single run is written as a bare object; multiple runs as a list,
    // so one-scenario runs produce the simplest possible file.
    if (run_docs.size() == 1) {
      out << run_docs.front().dump_string();
    } else {
      Json doc = Json::array();
      for (Json& r : run_docs) doc.push_back(std::move(r));
      out << doc.dump_string();
    }
    if (!a.quiet) {
      std::cout << "\nWrote JSON summary to " << a.out_path << "\n";
    }
  }
  return 0;
}

}  // namespace easydram::cli
