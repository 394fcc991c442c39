#include "smc/scheduler.hpp"

#include <algorithm>

namespace easydram::smc {

std::optional<std::size_t> FcfsScheduler::pick(const PickContext& ctx,
                                               std::size_t& scanned_entries) {
  // The modeled SMC program walks its whole table to find the oldest
  // entry; the host gets it for free as the front of the arrival order.
  scanned_entries = ctx.table.size();
  if (ctx.table.empty()) return std::nullopt;
  return ctx.table.arrival_order().front().slot;
}

namespace {

using Records = std::span<const TableRecord>;

/// kNoLimit disables frfcfs_pick_below's age cut.
constexpr std::uint64_t kNoLimit = ~0ull;

/// Slot of a record a walk chose; nullopt for none.
std::optional<std::size_t> slot_of(const TableRecord* r) {
  if (r == nullptr) return std::nullopt;
  return r->slot;
}

/// Oldest row-buffer-hit record among those with arrival_seq < seq_limit,
/// else the oldest such record; null when none qualifies. Records are
/// oldest-first, so the first row hit found is the oldest one, and records
/// at or past the limit form a suffix that ends the walk.
const TableRecord* frfcfs_pick_below(Records records, BankStateView banks,
                                     std::uint64_t seq_limit) {
  if (records.empty() || records.front().arrival_seq >= seq_limit) {
    return nullptr;
  }
  for (const TableRecord& r : records) {
    if (r.arrival_seq >= seq_limit) break;
    if (banks.row_hit(r.bank, r.row, r.rank)) return &r;
  }
  return &records.front();
}

/// FR-FCFS restricted to records whose stream satisfies `pred`: the oldest
/// row hit among them, else the oldest; null when no record qualifies.
template <typename StreamPredicate>
const TableRecord* frfcfs_pick_if(Records records, BankStateView banks,
                                  StreamPredicate pred) {
  const TableRecord* oldest = nullptr;
  for (const TableRecord& r : records) {
    if (!pred(r.stream)) continue;
    if (oldest == nullptr) oldest = &r;
    if (banks.row_hit(r.bank, r.row, r.rank)) return &r;
  }
  return oldest;
}

/// Fills `streams` with the distinct stream ids outstanding in `records`,
/// ascending, and returns it. The table is small (tens of slots), so a
/// sorted vector beats any set; callers pass a scratch buffer they own so
/// picks do not allocate.
const std::vector<std::uint32_t>& distinct_streams(
    Records records, std::vector<std::uint32_t>& streams) {
  streams.clear();
  for (const TableRecord& r : records) streams.push_back(r.stream);
  std::sort(streams.begin(), streams.end());
  streams.erase(std::unique(streams.begin(), streams.end()), streams.end());
  return streams;
}

}  // namespace

std::optional<std::size_t> FrfcfsScheduler::pick(const PickContext& ctx,
                                                 std::size_t& scanned_entries) {
  scanned_entries = ctx.table.size();
  return slot_of(
      frfcfs_pick_below(ctx.table.arrival_order(), ctx.banks, kNoLimit));
}

BatchScheduler::BatchScheduler(std::size_t batch_size) : batch_size_(batch_size) {
  EASYDRAM_EXPECTS(batch_size > 0);
}

std::optional<std::size_t> BatchScheduler::pick(const PickContext& ctx,
                                                std::size_t& scanned_entries) {
  const Records records = ctx.table.arrival_order();
  scanned_entries = records.size();
  if (records.empty()) return std::nullopt;

  // Serve FR-FCFS *within* the current batch; open a new batch only when
  // the current one is fully drained.
  const TableRecord* in_batch =
      frfcfs_pick_below(records, ctx.banks, batch_boundary_);
  if (in_batch == nullptr) {
    // Current batch drained: the next batch covers the next batch_size_
    // arrivals starting from the oldest outstanding request.
    batch_boundary_ = records.front().arrival_seq + batch_size_;
    in_batch = frfcfs_pick_below(records, ctx.banks, batch_boundary_);
  }
  return slot_of(in_batch);
}

BlacklistScheduler::BlacklistScheduler(int streak_limit,
                                       std::uint64_t clear_interval)
    : streak_limit_(streak_limit), clear_interval_(clear_interval) {
  EASYDRAM_EXPECTS(streak_limit > 0);
  EASYDRAM_EXPECTS(clear_interval > 0);
}

std::optional<std::size_t> BlacklistScheduler::pick(
    const PickContext& ctx, std::size_t& scanned_entries) {
  const Records records = ctx.table.arrival_order();
  scanned_entries = records.size();
  if (records.empty()) return std::nullopt;

  // Per-stream blacklisting needs at least two streams to arbitrate
  // between; a single-stream table uses the original bounded-row-streak
  // simplification so legacy single-source traffic sees identical
  // decisions.
  if (distinct_streams(records, streams_).size() >= 2) {
    return pick_multi_stream(records, ctx.banks).slot;
  }
  return pick_single_source(records, ctx.banks).slot;
}

const TableRecord& BlacklistScheduler::pick_single_source(
    Records records, BankStateView banks) {
  // Below the streak limit FR-FCFS decides; at the limit the streak is
  // broken with the oldest request.
  const TableRecord& choice = row_streak_ < streak_limit_
                                  ? *frfcfs_pick_below(records, banks, kNoLimit)
                                  : records.front();

  row_streak_ = has_last_row_ && choice.row_key == last_row_key_
                    ? row_streak_ + 1
                    : 1;
  has_last_row_ = true;
  last_row_key_ = choice.row_key;
  return choice;
}

const TableRecord& BlacklistScheduler::pick_multi_stream(
    Records records, BankStateView banks) {
  // Clearing interval: periodically forgive everyone so a blacklisted
  // stream is not starved forever (counted in picks, not cycles, to stay
  // invariant under time scaling).
  if (picks_since_clear_ >= clear_interval_) {
    std::fill(blacklist_.begin(), blacklist_.end(), false);
    picks_since_clear_ = 0;
    stream_streak_ = 0;
    has_last_stream_ = false;
  }

  // Non-blacklisted requests outrank blacklisted ones; within a rank class
  // FR-FCFS applies. When every outstanding stream is blacklisted there is
  // nothing to protect, so plain FR-FCFS decides.
  const TableRecord* choice = frfcfs_pick_if(
      records, banks, [this](std::uint32_t s) { return !blacklisted(s); });
  if (choice == nullptr) choice = frfcfs_pick_below(records, banks, kNoLimit);

  const std::uint32_t stream = choice->stream;
  stream_streak_ =
      has_last_stream_ && stream == last_stream_ ? stream_streak_ + 1 : 1;
  has_last_stream_ = true;
  last_stream_ = stream;
  if (stream_streak_ >= streak_limit_) {
    if (stream >= blacklist_.size()) blacklist_.resize(stream + 1, false);
    blacklist_[stream] = true;
    stream_streak_ = 0;
    has_last_stream_ = false;
  }
  ++picks_since_clear_;
  return *choice;
}

std::optional<std::size_t> AtlasScheduler::pick(const PickContext& ctx,
                                                std::size_t& scanned_entries) {
  const Records records = ctx.table.arrival_order();
  scanned_entries = records.size();
  if (records.empty()) return std::nullopt;
  if (ctx.streams == nullptr) {
    return slot_of(frfcfs_pick_below(records, ctx.banks, kNoLimit));
  }

  // Rank outstanding streams by long-term attained service, least first
  // (ties to the lower stream id), and serve FR-FCFS within the winner.
  const std::vector<std::uint32_t>& present =
      distinct_streams(records, streams_);
  std::uint32_t best = present.front();
  std::uint64_t best_service = ctx.streams->attained_service(best);
  for (const std::uint32_t s : present) {
    const std::uint64_t service = ctx.streams->attained_service(s);
    if (service < best_service) {
      best = s;
      best_service = service;
    }
  }
  return slot_of(frfcfs_pick_if(records, ctx.banks,
                                [best](std::uint32_t s) { return s == best; }));
}

TcmScheduler::TcmScheduler(std::uint64_t window_size)
    : window_size_(window_size) {
  EASYDRAM_EXPECTS(window_size > 0);
}

void TcmScheduler::roll_window() {
  // Classify by served share over the closing window: streams above the
  // fair share (window / active streams) join the bandwidth-heavy cluster,
  // everyone else is latency-sensitive. A lone stream can never exceed its
  // own fair share, so single-stream traffic stays latency-classified and
  // the policy degenerates to plain FR-FCFS.
  std::uint64_t active = 0;
  for (const std::uint64_t served : served_in_window_) {
    if (served > 0) ++active;
  }
  bandwidth_.assign(served_in_window_.size(), false);
  if (active > 0) {
    const std::uint64_t fair_share = picks_in_window_ / active;
    for (std::size_t s = 0; s < served_in_window_.size(); ++s) {
      bandwidth_[s] = served_in_window_[s] > fair_share;
    }
  }
  std::fill(served_in_window_.begin(), served_in_window_.end(), 0);
  picks_in_window_ = 0;
  ++shuffle_offset_;  // Rotate which bandwidth hog goes first next window.
}

std::optional<std::size_t> TcmScheduler::pick(const PickContext& ctx,
                                              std::size_t& scanned_entries) {
  const Records records = ctx.table.arrival_order();
  scanned_entries = records.size();
  if (records.empty()) return std::nullopt;
  if (picks_in_window_ >= window_size_) roll_window();

  // Latency cluster strictly first.
  const TableRecord* choice =
      frfcfs_pick_if(records, ctx.banks, [this](std::uint32_t s) {
        return !bandwidth_cluster(s);
      });
  if (choice == nullptr) {
    // Only bandwidth-heavy streams outstanding: the shuffle offset picks
    // which of them owns top priority this window.
    const std::vector<std::uint32_t>& present =
        distinct_streams(records, streams_);
    const std::uint32_t first =
        present[static_cast<std::size_t>(shuffle_offset_ % present.size())];
    choice = frfcfs_pick_if(records, ctx.banks,
                            [first](std::uint32_t s) { return s == first; });
    if (choice == nullptr) {
      choice = frfcfs_pick_below(records, ctx.banks, kNoLimit);
    }
  }

  const std::uint32_t stream = choice->stream;
  if (stream >= served_in_window_.size()) {
    served_in_window_.resize(stream + 1, 0);
  }
  ++served_in_window_[stream];
  ++picks_in_window_;
  return choice->slot;
}

std::string_view to_string(SchedulerKind kind) {
  switch (kind) {
    case SchedulerKind::kAuto: return "auto";
    case SchedulerKind::kFcfs: return "fcfs";
    case SchedulerKind::kFrfcfs: return "frfcfs";
    case SchedulerKind::kParbs: return "parbs";
    case SchedulerKind::kBliss: return "bliss";
    case SchedulerKind::kAtlas: return "atlas";
    case SchedulerKind::kTcm: return "tcm";
  }
  return "auto";
}

std::optional<SchedulerKind> parse_scheduler(std::string_view token) {
  for (const SchedulerKind kind :
       {SchedulerKind::kAuto, SchedulerKind::kFcfs, SchedulerKind::kFrfcfs,
        SchedulerKind::kParbs, SchedulerKind::kBliss, SchedulerKind::kAtlas,
        SchedulerKind::kTcm}) {
    if (token == to_string(kind)) return kind;
  }
  return std::nullopt;
}

std::unique_ptr<Scheduler> make_scheduler(SchedulerKind kind) {
  switch (kind) {
    case SchedulerKind::kFcfs: return std::make_unique<FcfsScheduler>();
    case SchedulerKind::kAuto:
    case SchedulerKind::kFrfcfs: return std::make_unique<FrfcfsScheduler>();
    case SchedulerKind::kParbs: return std::make_unique<BatchScheduler>();
    case SchedulerKind::kBliss: return std::make_unique<BlacklistScheduler>();
    case SchedulerKind::kAtlas: return std::make_unique<AtlasScheduler>();
    case SchedulerKind::kTcm: return std::make_unique<TcmScheduler>();
  }
  return std::make_unique<FrfcfsScheduler>();
}

}  // namespace easydram::smc
