#include "cpu/core.hpp"

#include <array>
#include <atomic>
#include <deque>
#include <exception>
#include <memory>
#include <span>
#include <thread>
#include <utility>

#include "common/divisor.hpp"

namespace easydram::cpu {

namespace {

// ---------------------------------------------------------------------------
// Events: what the filter stage hands the timing stage
// ---------------------------------------------------------------------------

enum class EventKind : std::uint8_t {
  kAdvance,    ///< arg: issue slots to add to the timeline.
  kStream,     ///< arg: the stream id for MemoryBackend::set_stream.
  kLoadMiss,   ///< addr: line; kDependent; kWriteback with arg = victim.
  kStoreMiss,  ///< addr: line; kWriteback with arg = victim.
  kWrite,      ///< addr: line, posted to memory.
  kRowClone,   ///< addr: source; arg: destination.
  kDrain,
  kMarker,
  kEnd,        ///< kFailed: the filter threw; run() rethrows its exception.
};

/// One 16-byte event. Trace addresses lie below TraceRecord::kAddrLimit
/// (2^40), so `word` carries the kind in its top byte and flags in the bits
/// between it and the address. A RowClone's source is a whole address, not
/// a line, which is why the tag bits are the high ones rather than the six
/// a line-aligned address leaves free.
struct Event {
  std::uint64_t word = 0;
  std::uint64_t arg = 0;

  EventKind kind() const { return static_cast<EventKind>(word >> 56); }
  std::uint64_t addr() const { return word & (TraceRecord::kAddrLimit - 1); }
  bool has(std::uint64_t flag) const { return (word & flag) != 0; }
};
static_assert(sizeof(Event) == 16);

constexpr std::uint64_t kDependent = std::uint64_t{1} << 48;
constexpr std::uint64_t kWriteback = std::uint64_t{1} << 49;
constexpr std::uint64_t kFailed = std::uint64_t{1} << 50;

Event make_event(EventKind kind, std::uint64_t addr = 0,
                 std::uint64_t flags = 0, std::uint64_t arg = 0) {
  return Event{(std::uint64_t{static_cast<std::uint8_t>(kind)} << 56) | flags |
                   addr,
               arg};
}

// ---------------------------------------------------------------------------
// The ring between the stages
// ---------------------------------------------------------------------------

/// Thrown on the filter thread when the timing stage has stopped the run.
struct Stopped {};

void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

/// Spins briefly on `ready`, then blocks on `word` until `ready` holds. The
/// side that makes `ready` true changes `word` afterwards and notifies, so
/// a change between the load of `word` and the wait cannot be lost. The
/// spin only pauses and is short; the wait sleeps in the kernel, so a
/// waiting side costs no CPU time when helper threads outnumber cores.
template <class Ready>
void await(const std::atomic<std::uint32_t>& word, Ready ready) {
  constexpr int kSpins = 256;
  for (int i = 0; i < kSpins; ++i) {
    if (ready()) return;
    cpu_relax();
  }
  for (;;) {
    const std::uint32_t seen = word.load(std::memory_order_acquire);
    if (ready()) return;
    word.wait(seen, std::memory_order_acquire);
  }
}

/// Single-producer, single-consumer ring of fixed event blocks, 64 KiB in
/// all. The producer fills a block privately and hands it over whole, so
/// the stages synchronise once per block, not once per event; a RowClone
/// hands over a partial block because the producer needs its outcome. A
/// 128 KiB ring ran no faster on PolyBench and, allocated once per run
/// between the memory system's own allocations, raised its peak resident
/// set by 0.75 MiB where this one costs 0.2 MiB.
class EventRing {
 public:
  static constexpr std::uint32_t kBlocks = 8;
  static constexpr std::uint32_t kBlockEvents = 512;

  EventRing() : blocks_(std::make_unique<Block[]>(kBlocks)) {}
  EventRing(const EventRing&) = delete;
  EventRing& operator=(const EventRing&) = delete;

  // --- Producer (filter thread) ---------------------------------------------

  void push(const Event& e) {
    if (fill_ == kBlockEvents) {
      hand_over();
      await_free_block();
    }
    blocks_[tail_ % kBlocks].events[fill_++] = e;
  }

  /// Hands over the block under construction, even if partial. The last
  /// call of a run: it does not wait for a free block.
  void hand_over() {
    blocks_[tail_ % kBlocks].size = fill_;
    fill_ = 0;
    if (stopped_.load(std::memory_order_relaxed)) throw Stopped{};
    published_.store(++tail_, std::memory_order_release);
    published_.notify_one();
  }

  /// After a pushed kRowClone: hands it over and returns its outcome.
  bool rowclone_outcome() {
    hand_over();
    const std::uint32_t want = ++outcomes_;
    await(wake_, [&] {
      return stopped_.load(std::memory_order_acquire) ||
             feedback_.load(std::memory_order_acquire) >> 1 == want;
    });
    if (stopped_.load(std::memory_order_acquire)) throw Stopped{};
    const bool ok = (feedback_.load(std::memory_order_relaxed) & 1) != 0;
    await_free_block();
    return ok;
  }

  // --- Consumer (caller thread) ---------------------------------------------

  /// The oldest handed-over block; blocks until there is one.
  std::span<const Event> acquire() {
    await(published_, [&] {
      return published_.load(std::memory_order_acquire) != head_;
    });
    const Block& b = blocks_[head_ % kBlocks];
    return {b.events.data(), b.size};
  }

  /// Returns the block acquire() gave to the producer.
  void release() {
    consumed_.store(++head_, std::memory_order_release);
    signal();
  }

  /// Answers the producer's rowclone_outcome().
  void deliver_outcome(bool ok) {
    feedback_.store((++delivered_ << 1) | (ok ? 1 : 0),
                    std::memory_order_release);
    signal();
  }

  /// Makes every producer wait or hand-over from now on throw Stopped.
  void stop() {
    stopped_.store(true, std::memory_order_release);
    signal();
  }

 private:
  struct Block {
    std::array<Event, kBlockEvents> events;
    std::uint32_t size = 0;
  };

  void await_free_block() {
    await(wake_, [&] {
      return stopped_.load(std::memory_order_acquire) ||
             tail_ - consumed_.load(std::memory_order_acquire) < kBlocks;
    });
    if (stopped_.load(std::memory_order_acquire)) throw Stopped{};
  }

  void signal() {
    wake_.fetch_add(1, std::memory_order_release);
    wake_.notify_one();
  }

  std::unique_ptr<Block[]> blocks_;

  // Producer-private.
  alignas(64) std::uint32_t tail_ = 0;  ///< Blocks handed over.
  std::uint32_t fill_ = 0;              ///< Events in the block being built.
  std::uint32_t outcomes_ = 0;          ///< RowClone outcomes awaited.

  // Consumer-private.
  alignas(64) std::uint32_t head_ = 0;  ///< Blocks released.
  std::uint32_t delivered_ = 0;         ///< RowClone outcomes delivered.

  // Producer to consumer.
  alignas(64) std::atomic<std::uint32_t> published_{0};
  // Consumer to producer: `wake_` changes after each of the others does.
  alignas(64) std::atomic<std::uint32_t> consumed_{0};
  std::atomic<std::uint32_t> feedback_{0};  ///< delivered_ << 1 | ok.
  std::atomic<bool> stopped_{false};
  std::atomic<std::uint32_t> wake_{0};
};

// ---------------------------------------------------------------------------
// Filter stage (helper thread): trace and caches
// ---------------------------------------------------------------------------

/// Runs the caches over the trace and emits the events that need memory
/// timing. Counts what the caches decide; the timing stage counts the rest.
/// Both stages live in run()'s frame; cache-line alignment keeps each
/// thread's hot counters off the other's lines.
class alignas(64) FilterStage {
 public:
  FilterStage(const CoreConfig& cfg, Cache& l1, Cache& l2, EventRing& ring)
      : cfg_(cfg),
        l1_(l1),
        l2_(l2),
        ring_(ring),
        l1_hit_slots_(slots(cfg.l1_latency)),
        l2_hit_slots_(slots(cfg.l2_latency)),
        flush_slots_(slots(cfg.flush_cost)),
        trigger_slots_(slots(cfg.rowclone_trigger_cycles.count)) {}

  /// The helper thread's entry point: never throws. A failure is handed to
  /// the timing stage as a failed kEnd and kept for error().
  void run(TraceSource& trace) noexcept {
    try {
      filter(trace);
      return;
    } catch (const Stopped&) {
      return;
    } catch (...) {
      error_ = std::current_exception();
    }
    try {
      emit(EventKind::kEnd, 0, kFailed);
      ring_.hand_over();
    } catch (const Stopped&) {
    }
  }

  const RunResult& counts() const { return counts_; }
  const std::exception_ptr& error() const { return error_; }

 private:
  void filter(TraceSource& trace) {
    bool last_rowclone_ok = true;
    for (std::span<const TraceRecord> span = trace.pull(last_rowclone_ok);
         !span.empty(); span = trace.pull(last_rowclone_ok)) {
      filter_span(span, last_rowclone_ok);
    }
    emit(EventKind::kEnd);
    ring_.hand_over();
  }

  /// Runs one pulled span; a RowClone in it sets `last_rowclone_ok`.
  void filter_span(std::span<const TraceRecord> span, bool& last_rowclone_ok) {
    for (std::size_t i = 0; i < span.size(); ++i) {
      const TraceRecord& rec = span[i];
      // Stream identity is sticky on the backend: every request this record
      // causes — including writebacks of lines another stream dirtied — is
      // attributed to the stream whose access is executing now.
      if (rec.stream != stream_) {
        stream_ = rec.stream;
        emit(EventKind::kStream, 0, 0, stream_);
      }
      const std::uint64_t instructions = std::uint64_t{rec.gap_instructions} + 1;
      counts_.instructions += static_cast<std::int64_t>(instructions);
      slots_ += instructions;
      const std::uint64_t line = rec.addr() & ~std::uint64_t{63};

      switch (rec.op) {
        case Op::kLoad:
        case Op::kLoadDependent: {
          ++counts_.loads;
          const bool dependent =
              cfg_.blocking_loads || rec.op == Op::kLoadDependent;
          if (l1_.access(line)) {
            if (dependent) slots_ += l1_hit_slots_;
            break;
          }
          ++counts_.l1_misses;
          if (l2_.access(line)) {
            fill_l1(line, false);
            if (dependent) slots_ += l2_hit_slots_;
            break;
          }
          ++counts_.l2_misses;
          miss(EventKind::kLoadMiss, line, false, dependent ? kDependent : 0);
          break;
        }

        case Op::kStoreStream: {
          if (cfg_.write_streaming) {
            ++counts_.stores;
            // Non-temporal full-line store: no allocation, no RFO. Any cached
            // copy is superseded wholesale (no writeback needed).
            l1_.flush(line);
            l2_.flush(line);
            emit(EventKind::kWrite, line);
            break;
          }
          [[fallthrough]];  // Cores without streaming treat it as a store.
        }

        case Op::kStore: {
          ++counts_.stores;
          if (l1_.access_store(line)) break;
          ++counts_.l1_misses;
          if (l2_.access(line)) {
            fill_l1(line, true);
            break;
          }
          ++counts_.l2_misses;
          // Write-allocate: the read-for-ownership occupies a store-buffer
          // slot; the core stalls only when the buffer is full.
          miss(EventKind::kStoreMiss, line, true, 0);
          break;
        }

        case Op::kFlush: {
          ++counts_.flushes;
          slots_ += flush_slots_;
          const Cache::FlushResult f1 = l1_.flush(line);
          const Cache::FlushResult f2 = l2_.flush(line);
          if (f1.was_dirty || f2.was_dirty) emit(EventKind::kWrite, line);
          break;
        }

        case Op::kRowClone: {
          // The pair travels in one span (TraceSource's contract).
          EASYDRAM_EXPECTS(i + 1 < span.size() &&
                           span[i + 1].op == Op::kRowCloneDst);
          const TraceRecord& dst = span[++i];
          ++counts_.rowclones;
          slots_ += trigger_slots_;
          emit(EventKind::kRowClone, rec.addr(), 0, dst.addr());
          last_rowclone_ok = ring_.rowclone_outcome();
          break;
        }

        case Op::kRowCloneDst:
          EASYDRAM_EXPECTS(!"kRowCloneDst without its kRowClone");
          break;

        case Op::kDrain:
          emit(EventKind::kDrain);
          break;

        case Op::kMarker:
          emit(EventKind::kMarker);
          break;
      }
    }
  }

  /// Issue slots of `cycles` cycles; the constructor checks they are >= 0.
  std::uint64_t slots(std::int64_t cycles) const {
    return static_cast<std::uint64_t>(cycles) * cfg_.issue_width;
  }

  /// Pushes one event, after the issue slots accumulated since the last.
  void emit(EventKind kind, std::uint64_t addr = 0, std::uint64_t flags = 0,
            std::uint64_t arg = 0) {
    if (slots_ != 0) {
      ring_.push(make_event(EventKind::kAdvance, 0, 0, slots_));
      slots_ = 0;
    }
    ring_.push(make_event(kind, addr, flags, arg));
  }

  /// Brings `line`, which L2 holds, into L1 (dirty when `dirty`).
  void fill_l1(std::uint64_t line, bool dirty) {
    const FillResult l1fill = l1_.fill(line, dirty);
    // A dirty L1 victim folds back into L2. The hierarchy is inclusive (an
    // L2 eviction back-invalidates L1; flushes and streaming stores clear
    // both levels), so the victim is always still in L2 and mark_dirty's
    // precondition enforces that.
    if (l1fill.evicted && l1fill.evicted_dirty) l2_.mark_dirty(l1fill.evicted_line);
  }

  /// L2 miss: allocates `line` in L2 and L1 and emits the miss, carrying
  /// the victim when the L2 eviction needs a writeback.
  void miss(EventKind kind, std::uint64_t line, bool dirty, std::uint64_t flags) {
    const FillResult l2fill = l2_.fill(line);
    std::uint64_t victim = 0;
    if (l2fill.evicted) {
      // Inclusive hierarchy: back-invalidate the L1 copy; the freshest
      // dirty version (L1 over L2) is written back to memory.
      const Cache::FlushResult l1f = l1_.flush(l2fill.evicted_line);
      if (l2fill.evicted_dirty || l1f.was_dirty) {
        flags |= kWriteback;
        victim = l2fill.evicted_line;
      }
    }
    fill_l1(line, dirty);
    emit(kind, line, flags, victim);
  }

  const CoreConfig& cfg_;
  Cache& l1_;
  Cache& l2_;
  EventRing& ring_;
  const std::uint64_t l1_hit_slots_;  ///< A dependent L1 hit's latency.
  const std::uint64_t l2_hit_slots_;  ///< A dependent L2 hit's latency.
  const std::uint64_t flush_slots_;
  const std::uint64_t trigger_slots_;  ///< A RowClone's trigger cost.
  std::uint64_t slots_ = 0;  ///< Issue slots not yet emitted.
  std::uint32_t stream_ = 0;  ///< Stream of the record last executed.
  RunResult counts_;
  std::exception_ptr error_;
};

// ---------------------------------------------------------------------------
// Timing stage (caller thread): time, queues and the memory system
// ---------------------------------------------------------------------------

/// Replays the events against the memory backend. Time is kept in issue
/// slots, S = cycle * issue_width + remainder, so an advance is one add;
/// the cycle is derived only where a backend call or a wait needs it.
class alignas(64) TimingStage {
 public:
  TimingStage(const CoreConfig& cfg, MemoryBackend& mem)
      : cfg_(cfg), mem_(mem), width_(cfg.issue_width) {}

  /// Consumes events until kEnd; returns the counters the timing decides.
  /// A failed kEnd rethrows the filter's exception.
  RunResult run(EventRing& ring, const FilterStage& filter) {
    mem_.set_stream(0);
    for (;;) {
      for (const Event& e : ring.acquire()) {
        switch (e.kind()) {
          case EventKind::kAdvance:
            slots_ += e.arg;
            break;
          case EventKind::kStream:
            mem_.set_stream(static_cast<std::uint32_t>(e.arg));
            break;
          case EventKind::kLoadMiss: {
            if (outstanding_loads_.size() >= cfg_.mlp) {
              wait_oldest(outstanding_loads_);
            }
            if (e.has(kWriteback)) write(e.arg);
            const std::uint64_t id = read(e.addr());
            if (e.has(kDependent)) {
              const Completion c = mem_.wait(id);
              catch_up(c.release_cycle + cfg_.fill_to_use);
            } else {
              outstanding_loads_.push_back(id);
            }
            break;
          }
          case EventKind::kStoreMiss:
            reserve_store_slot();
            if (e.has(kWriteback)) write(e.arg);
            store_slots_.push_back(read(e.addr()));
            break;
          case EventKind::kWrite:
            write(e.addr());
            break;
          case EventKind::kRowClone: {
            const Completion c =
                mem_.wait(mem_.submit_rowclone(e.addr(), e.arg, cycle()));
            catch_up(c.release_cycle);
            if (!c.ok) ++out_.rowclone_fallbacks;
            ring.deliver_outcome(c.ok);
            break;
          }
          case EventKind::kDrain:
            drain_all();
            break;
          case EventKind::kMarker:
            drain_all();
            out_.markers.push_back(cycle());
            break;
          case EventKind::kEnd:
            ring.release();
            if (e.has(kFailed)) std::rethrow_exception(filter.error());
            drain_all();
            out_.cycles = cycle();
            return std::move(out_);
        }
      }
      ring.release();
    }
  }

 private:
  std::int64_t cycle() const {
    return static_cast<std::int64_t>(width_.divide(slots_));
  }

  /// cycle = max(cycle, release), keeping the slot remainder.
  void catch_up(std::int64_t release) {
    const std::uint64_t c = width_.divide(slots_);
    if (release > static_cast<std::int64_t>(c)) {
      slots_ = static_cast<std::uint64_t>(release) * cfg_.issue_width +
               (slots_ - c * cfg_.issue_width);
    }
  }

  std::uint64_t read(std::uint64_t line) {
    ++out_.mem_reads;
    return mem_.submit_read(line, cycle());
  }

  /// Posts a write of `line` into a store-buffer slot.
  void write(std::uint64_t line) {
    reserve_store_slot();
    store_slots_.push_back(mem_.submit_write(line, cycle()));
    ++out_.mem_writes;
  }

  void wait_oldest(std::deque<std::uint64_t>& queue) {
    const Completion c = mem_.wait(queue.front());
    queue.pop_front();
    catch_up(c.release_cycle);
  }

  void reserve_store_slot() {
    if (store_slots_.size() >= cfg_.store_buffer) wait_oldest(store_slots_);
  }

  void drain_all() {
    while (!outstanding_loads_.empty()) wait_oldest(outstanding_loads_);
    while (!store_slots_.empty()) wait_oldest(store_slots_);
  }

  const CoreConfig& cfg_;
  MemoryBackend& mem_;
  ConstDivisor width_;
  std::uint64_t slots_ = 0;
  std::deque<std::uint64_t> outstanding_loads_;
  std::deque<std::uint64_t> store_slots_;
  RunResult out_;
};

}  // namespace

Core::Core(const CoreConfig& cfg, const CacheHierConfig& caches)
    : cfg_(cfg), l1_(caches.l1), l2_(caches.l2) {
  EASYDRAM_EXPECTS(cfg.issue_width > 0);
  EASYDRAM_EXPECTS(cfg.mlp > 0);
  EASYDRAM_EXPECTS(cfg.store_buffer > 0);
  // Fixed latencies are issue-slot advances; the timeline only moves forward.
  EASYDRAM_EXPECTS(cfg.l1_latency >= 0 && cfg.l2_latency >= 0 &&
                   cfg.flush_cost >= 0 && cfg.rowclone_trigger_cycles.count >= 0);
  // run() issues every access as a 64-byte line (addr & ~63).
  EASYDRAM_EXPECTS(caches.l1.line_bytes == 64 && caches.l2.line_bytes == 64);
}

RunResult Core::run(TraceSource& trace, MemoryBackend& mem) {
  EventRing ring;
  FilterStage filter(cfg_, l1_, l2_, ring);
  std::thread helper([&filter, &trace] { filter.run(trace); });
  RunResult result;
  try {
    result = TimingStage(cfg_, mem).run(ring, filter);
  } catch (...) {
    ring.stop();
    helper.join();
    throw;
  }
  helper.join();
  const RunResult& counts = filter.counts();
  result.instructions = counts.instructions;
  result.loads = counts.loads;
  result.stores = counts.stores;
  result.l1_misses = counts.l1_misses;
  result.l2_misses = counts.l2_misses;
  result.rowclones = counts.rowclones;
  result.flushes = counts.flushes;
  return result;
}

}  // namespace easydram::cpu
