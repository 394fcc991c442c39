// A sampling profiler preloaded into the program it profiles:
//
//   EASYDRAM_PROF_OUT=prof LD_PRELOAD=libeasydram_sampler.so program args
//
// Every millisecond of CPU time the process consumes, setitimer(ITIMER_PROF)
// raises SIGPROF on the thread that was running; the handler records that
// thread's id and interrupted program counter into a preallocated buffer.
// At exit the library writes `<EASYDRAM_PROF_OUT>.<pid>` (default
// `easydram-prof.<pid>`): one `object <start> <end> <bias> <path>` line per
// loaded segment, found with dl_iterate_phdr, then one `sample <tid> <pc>
// <count>` line per distinct (thread, pc). tools/profile/easyprof.py
// symbolizes the file. Only the leaf program counter is taken (no stack
// walk); addr2line -i recovers the functions inlined at it.

#include <link.h>
#include <signal.h>
#include <sys/syscall.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

namespace {

struct Sample {
  std::uint64_t pc;
  std::uint64_t tid;
};

constexpr std::size_t kMaxSamples = std::size_t{1} << 20;  ///< ~17 CPU-minutes.
constexpr long kIntervalUs = 1000;

Sample g_samples[kMaxSamples];
std::atomic<std::size_t> g_count{0};
std::atomic<bool> g_running{false};

std::uint64_t interrupted_pc(void* context) {
  const auto* uc = static_cast<const ucontext_t*>(context);
#if defined(__x86_64__)
  return static_cast<std::uint64_t>(uc->uc_mcontext.gregs[REG_RIP]);
#elif defined(__aarch64__)
  return uc->uc_mcontext.pc;
#else
  (void)uc;
  return 0;
#endif
}

void on_sigprof(int, siginfo_t*, void* context) {
  if (!g_running.load(std::memory_order_relaxed)) return;
  const std::size_t i = g_count.fetch_add(1, std::memory_order_relaxed);
  if (i >= kMaxSamples) return;
  g_samples[i] = Sample{interrupted_pc(context),
                        static_cast<std::uint64_t>(syscall(SYS_gettid))};
}

int write_object(dl_phdr_info* info, std::size_t, void* out) {
  std::string path = info->dlpi_name != nullptr ? info->dlpi_name : "";
  if (path.empty()) {
    // The main program: dl_iterate_phdr names it "".
    char exe[4096];
    const ssize_t n = readlink("/proc/self/exe", exe, sizeof exe - 1);
    if (n > 0) path.assign(exe, static_cast<std::size_t>(n));
  }
  if (path.empty()) return 0;  // The vDSO: no file to symbolize.
  for (int i = 0; i < info->dlpi_phnum; ++i) {
    const ElfW(Phdr)& ph = info->dlpi_phdr[i];
    if (ph.p_type != PT_LOAD || (ph.p_flags & PF_X) == 0) continue;
    const std::uint64_t start = info->dlpi_addr + ph.p_vaddr;
    std::fprintf(static_cast<std::FILE*>(out), "object %#llx %#llx %#llx %s\n",
                 static_cast<unsigned long long>(start),
                 static_cast<unsigned long long>(start + ph.p_memsz),
                 static_cast<unsigned long long>(info->dlpi_addr), path.c_str());
  }
  return 0;
}

__attribute__((constructor)) void start_sampling() {
  struct sigaction sa {};
  sa.sa_sigaction = on_sigprof;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&sa.sa_mask);
  if (sigaction(SIGPROF, &sa, nullptr) != 0) return;
  g_running.store(true);
  itimerval timer{};
  timer.it_interval.tv_usec = kIntervalUs;
  timer.it_value.tv_usec = kIntervalUs;
  setitimer(ITIMER_PROF, &timer, nullptr);
}

__attribute__((destructor)) void stop_sampling() {
  const itimerval off{};
  setitimer(ITIMER_PROF, &off, nullptr);
  g_running.store(false);
  const std::size_t n = std::min(g_count.load(), kMaxSamples);

  const char* prefix = std::getenv("EASYDRAM_PROF_OUT");
  const std::string path = std::string(prefix != nullptr ? prefix : "easydram-prof") +
                           "." + std::to_string(getpid());
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return;
  std::fprintf(out, "easydram-prof 1 interval_us %ld dropped %zu\n", kIntervalUs,
               g_count.load() - n);
  dl_iterate_phdr(write_object, out);
  std::sort(g_samples, g_samples + n, [](const Sample& a, const Sample& b) {
    return a.tid != b.tid ? a.tid < b.tid : a.pc < b.pc;
  });
  for (std::size_t i = 0; i < n;) {
    std::size_t j = i;
    while (j < n && g_samples[j].tid == g_samples[i].tid &&
           g_samples[j].pc == g_samples[i].pc) {
      ++j;
    }
    std::fprintf(out, "sample %llu %#llx %zu\n",
                 static_cast<unsigned long long>(g_samples[i].tid),
                 static_cast<unsigned long long>(g_samples[i].pc), j - i);
    i = j;
  }
  std::fclose(out);
}

}  // namespace
