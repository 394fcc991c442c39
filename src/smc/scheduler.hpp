#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "smc/bank_state.hpp"
#include "smc/request_table.hpp"

namespace easydram::smc {

/// Per-stream service bookkeeping the controller maintains alongside the
/// request table. Streams are dense small integers (tenant ids); the table
/// grows on first sight of a stream and is never trimmed, so accumulated
/// service survives idle phases — exactly what ATLAS-style long-term
/// ranking needs.
class StreamTable {
 public:
  void note_arrival(std::uint32_t stream) { ++grow(stream).arrivals; }

  /// Records `amount` units of attained service (served requests) for
  /// `stream`.
  void note_service(std::uint32_t stream, std::uint64_t amount = 1) {
    Entry& e = grow(stream);
    e.served += amount;
    e.attained_service += amount;
  }

  std::uint64_t arrivals(std::uint32_t stream) const {
    return stream < entries_.size() ? entries_[stream].arrivals : 0;
  }
  std::uint64_t served(std::uint32_t stream) const {
    return stream < entries_.size() ? entries_[stream].served : 0;
  }
  std::uint64_t attained_service(std::uint32_t stream) const {
    return stream < entries_.size() ? entries_[stream].attained_service : 0;
  }

  /// One past the highest stream id observed so far.
  std::size_t size() const { return entries_.size(); }

  void clear() { entries_.clear(); }

 private:
  struct Entry {
    std::uint64_t arrivals = 0;
    std::uint64_t served = 0;
    std::uint64_t attained_service = 0;
  };

  Entry& grow(std::uint32_t stream) {
    if (stream >= entries_.size()) entries_.resize(stream + 1);
    return entries_[stream];
  }

  std::vector<Entry> entries_;
};

/// Everything a scheduling policy may consult for one decision, bundled so
/// the `pick` signature stops growing as policies get richer. `banks` is a
/// value: copying a view copies a span and a bank count. `streams` is
/// nullable: callers without per-stream bookkeeping (unit tests, benches)
/// pass nullptr and stream-aware policies degrade to their single-source
/// behavior.
struct PickContext {
  const RequestTable& table;
  BankStateView banks;
  const StreamTable* streams = nullptr;
};

/// A memory-request scheduling policy (Table 2: FCFS::schedule,
/// FRFCFS::schedule). Returns the table index to serve next, or nullopt for
/// an empty table. `scanned_entries` reports how many table entries the
/// policy examined so the cycle meter can charge a realistic software cost.
///
/// `pick` is non-const on purpose: stateful policies (PAR-BS batch
/// boundaries, BLISS streaks/blacklists, TCM cluster windows) update their
/// bookkeeping as part of the decision, exactly like their
/// software-memory-controller implementations. Row-hit comparisons must key
/// on the full (channel, rank, bank) bank coordinate — see dram::row_key.
class Scheduler {
 public:
  virtual ~Scheduler() = default;
  virtual std::optional<std::size_t> pick(const PickContext& ctx,
                                          std::size_t& scanned_entries) = 0;
  virtual std::string_view name() const = 0;
};

/// First come, first served: always the oldest request.
class FcfsScheduler final : public Scheduler {
 public:
  std::optional<std::size_t> pick(const PickContext& ctx,
                                  std::size_t& scanned_entries) override;
  std::string_view name() const override { return "FCFS"; }
};

/// First ready, first come, first served: the oldest row-buffer-hit request
/// if one exists, otherwise the oldest request.
class FrfcfsScheduler final : public Scheduler {
 public:
  std::optional<std::size_t> pick(const PickContext& ctx,
                                  std::size_t& scanned_entries) override;
  std::string_view name() const override { return "FR-FCFS"; }
};

/// PAR-BS-style batch scheduler (Mutlu & Moscibroda, ISCA'08, simplified):
/// requests are grouped into arrival batches of `batch_size`; the current
/// batch is fully served (row hits first within it) before any younger
/// request, bounding worst-case queueing delay. Because batch membership is
/// pure arrival order, no stream can starve another across a batch boundary
/// — the fairness property test_qos.cpp pins.
class BatchScheduler final : public Scheduler {
 public:
  explicit BatchScheduler(std::size_t batch_size = 8);

  std::optional<std::size_t> pick(const PickContext& ctx,
                                  std::size_t& scanned_entries) override;
  std::string_view name() const override { return "PAR-BS"; }

 private:
  std::size_t batch_size_;
  std::uint64_t batch_boundary_ = 0;  ///< First seq of the next batch.
};

/// BLISS-style blacklisting scheduler (Subramanian et al., ICCD'14).
///
/// With two or more distinct streams outstanding, the policy blacklists a
/// stream after `streak_limit` consecutive picks served from it; while
/// blacklisted, a stream's requests lose FR-FCFS priority to every
/// non-blacklisted request, restoring fairness at near-FR-FCFS throughput.
/// Blacklists clear every `clear_interval` picks (the paper's clearing
/// interval, counted in scheduling decisions rather than cycles so the
/// behavior is identical at any time-scaling factor).
///
/// Whenever the request table holds fewer than two distinct streams there
/// is nobody to favor over the hog, so that pick falls back to the original
/// single-source simplification: a *row-hit streak* longer than
/// `streak_limit` is broken by serving the oldest request. The test is made
/// per pick on the table's contents, not on the run's stream count: it
/// covers single-stream runs and runs without stream metadata, and also the
/// stretches of a multi-stream run when only one stream has requests
/// queued. Single-source decisions are bit-identical to the
/// pre-stream-identity implementation, which the golden scenario hashes
/// pin.
class BlacklistScheduler final : public Scheduler {
 public:
  explicit BlacklistScheduler(int streak_limit = 4,
                              std::uint64_t clear_interval = 128);

  std::optional<std::size_t> pick(const PickContext& ctx,
                                  std::size_t& scanned_entries) override;
  std::string_view name() const override { return "BLISS"; }

  /// Whether `stream` is currently blacklisted (test/diagnostic hook).
  bool blacklisted(std::uint32_t stream) const {
    return stream < blacklist_.size() && blacklist_[stream];
  }

 private:
  const TableRecord& pick_single_source(std::span<const TableRecord> records,
                                        BankStateView banks);
  const TableRecord& pick_multi_stream(std::span<const TableRecord> records,
                                       BankStateView banks);

  int streak_limit_;
  std::uint64_t clear_interval_;

  // Single-source mode: bounded row-hit streak. `has_last_row_` (not a
  // row-key sentinel) marks "no previous pick" so a legitimate row key —
  // including ~0 — can never alias it.
  int row_streak_ = 0;
  bool has_last_row_ = false;
  std::uint64_t last_row_key_ = 0;

  // Multi-stream mode: per-stream serve streaks and blacklist flags.
  int stream_streak_ = 0;
  bool has_last_stream_ = false;
  std::uint32_t last_stream_ = 0;
  std::uint64_t picks_since_clear_ = 0;
  std::vector<bool> blacklist_;
  std::vector<std::uint32_t> streams_;  ///< Per-pick scratch.
};

/// ATLAS-style scheduler (Kim et al., HPCA'10, simplified): streams are
/// ranked by long-term attained service (least attained service first, ties
/// to the lower stream id), and the scheduler serves FR-FCFS within the
/// highest-ranked stream that has an outstanding request. A stream that has
/// consumed lots of bandwidth is automatically outranked by lighter
/// streams, so latency-sensitive tenants pull ahead without explicit
/// classification. Without stream metadata it degrades to plain FR-FCFS.
class AtlasScheduler final : public Scheduler {
 public:
  std::optional<std::size_t> pick(const PickContext& ctx,
                                  std::size_t& scanned_entries) override;
  std::string_view name() const override { return "ATLAS"; }

 private:
  std::vector<std::uint32_t> streams_;  ///< Per-pick scratch.
};

/// TCM-style scheduler (Kim et al., MICRO'10, simplified): every
/// `window_size` picks, streams are classified by their served-request
/// share over the window into a latency-sensitive cluster (at or below the
/// fair share) and a bandwidth-heavy cluster (above it). Latency-cluster
/// requests strictly outrank bandwidth-cluster requests; within the
/// bandwidth cluster a rotating priority offset (the paper's "insertion
/// shuffle") rotates which hog goes first each window so hogs interfere
/// with each other fairly. FR-FCFS orders requests within a cluster.
class TcmScheduler final : public Scheduler {
 public:
  explicit TcmScheduler(std::uint64_t window_size = 64);

  std::optional<std::size_t> pick(const PickContext& ctx,
                                  std::size_t& scanned_entries) override;
  std::string_view name() const override { return "TCM"; }

  /// Whether `stream` is currently in the bandwidth-heavy cluster
  /// (test/diagnostic hook).
  bool bandwidth_cluster(std::uint32_t stream) const {
    return stream < bandwidth_.size() && bandwidth_[stream];
  }

 private:
  void roll_window();

  std::uint64_t window_size_;
  std::uint64_t picks_in_window_ = 0;
  std::uint64_t shuffle_offset_ = 0;
  std::vector<std::uint64_t> served_in_window_;
  std::vector<bool> bandwidth_;
  std::vector<std::uint32_t> streams_;  ///< Per-pick scratch.
};

/// Registry of the built-in scheduling policies, addressable from
/// `SystemConfig` and the CLI's `--sched` flag. kAuto preserves the legacy
/// `use_frfcfs` selection.
enum class SchedulerKind : std::uint8_t {
  kAuto,
  kFcfs,
  kFrfcfs,
  kParbs,
  kBliss,
  kAtlas,
  kTcm,
};

/// CLI token for `kind` ("auto", "fcfs", "frfcfs", "parbs", "bliss",
/// "atlas", "tcm").
std::string_view to_string(SchedulerKind kind);

/// Parses a CLI token into a SchedulerKind; nullopt for unknown tokens.
std::optional<SchedulerKind> parse_scheduler(std::string_view token);

/// Instantiates `kind` with its default parameters (kAuto yields FR-FCFS,
/// the legacy default).
std::unique_ptr<Scheduler> make_scheduler(SchedulerKind kind);

}  // namespace easydram::smc
