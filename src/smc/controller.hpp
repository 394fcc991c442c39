#pragma once

#include <array>
#include <cstdint>
#include <memory>

#include <vector>

#include "smc/bloom.hpp"
#include "smc/easyapi.hpp"
#include "smc/ecc.hpp"
#include "smc/mitigation/mitigator.hpp"
#include "smc/request_table.hpp"
#include "smc/rowclone_map.hpp"
#include "smc/scheduler.hpp"

namespace easydram::smc {

/// A software memory controller: a C++ program executed by the programmable
/// core. `step` is one iteration of the §4.4 main loop — check for new
/// requests, make a scheduling decision, handle DRAM responses.
class Controller {
 public:
  virtual ~Controller() = default;

  /// Runs one main-loop iteration; returns true when any request made
  /// progress (the system engine uses this to detect idleness).
  virtual bool step(EasyApi& api) = 0;

  /// True when no buffered work remains inside the controller.
  virtual bool idle() const = 0;
};

/// Options of the full-featured controller.
struct ControllerOptions {
  /// Scheduling policy; defaults to FR-FCFS when null.
  std::unique_ptr<Scheduler> scheduler;
  std::size_t request_table_capacity = 32;

  /// tRCD reduction (§8): when `weak_rows` is set, rows absent from the
  /// filter are accessed with `reduced_trcd`; rows (possibly falsely)
  /// flagged weak use the nominal value. Non-owning; a live controller
  /// takes a filter installed later through set_weak_rows().
  const BloomFilter* weak_rows = nullptr;
  Picoseconds reduced_trcd{9000};

  /// RowClone (§7): kRowClone requests whose pair this map records as
  /// verified clonable run in DRAM; others (every one, when null or empty)
  /// get a fallback response (ok = false). Non-owning; the map may gain
  /// pairs while the controller lives.
  const RowCloneMap* clonable = nullptr;

  /// Row-hit drain limit: after the scheduler picks a request, up to this
  /// many further buffered requests targeting the *same DRAM row* join the
  /// same command batch (column accesses back to back). This is how a real
  /// controller streams writes and row-hit reads; without it every request
  /// would pay the full software-loop latency.
  std::size_t row_batch_limit = 16;

  /// RowHammer mitigation policy (null = unmitigated). Non-owning: the
  /// policy must outlive the controller (the system layer's channel slice
  /// owns both). The controller feeds it every demand ACT (wire the
  /// controller as the EasyApi's ActSink) and injects the targeted
  /// neighbor refreshes it requests as charged Bender batches right after
  /// the triggering request's batch.
  mitigation::RowHammerMitigator* mitigator = nullptr;
};

/// The reference software memory controller shipped with EasyDRAM: request
/// transfer, FR-FCFS/FCFS scheduling, open-page policy, refresh
/// maintenance, and the RowClone / reduced-tRCD / profiling request paths.
class MemoryController final : public Controller, public ActSink {
 public:
  explicit MemoryController(ControllerOptions options);

  bool step(EasyApi& api) override;
  bool idle() const override { return table_.empty(); }

  const RequestTable& table() const { return table_; }

  /// Installs (or clears, with null) the weak-row filter; rows opened from
  /// here on pick their tRCD by it.
  void set_weak_rows(const BloomFilter* filter) { options_.weak_rows = filter; }

  /// Per-stream arrival/service bookkeeping (fed to stream-aware
  /// schedulers through PickContext).
  const StreamTable& streams() const { return streams_; }

  /// Installed mitigation policy, if any (owned by the caller; the
  /// system layer aggregates its stats across channels).
  const mitigation::RowHammerMitigator* mitigator() const {
    return options_.mitigator;
  }

  /// ActSink: observes this controller's own command stream. Demand ACTs
  /// feed the mitigation policy; the victim refreshes the policy requests
  /// are collected here and injected by the next flush_mitigation().
  /// Issued and skipped refresh slots are both forwarded so the policy's
  /// retention-window clock keeps wall pace under a skipping regime.
  void on_act(const dram::DramAddress& a) override;
  void on_refresh(std::uint32_t rank) override;
  void on_refresh_skipped(std::uint32_t rank) override;

 private:
  /// A read of the current column batch whose line a later write in the
  /// same batch replaces. The batch's commands run in order at the flush,
  /// so the read returns the replaced cells, while the write's check bits
  /// are stored as it is built. The read is decoded first against the
  /// check bits it saw, and audited against the cells it saw.
  struct OverwrittenRead {
    std::size_t batch_pos = 0;
    ErrorPolicy::LineChecks checks;
    /// The line's stored cells at the read; kept only under a fault model,
    /// the only case the escape audit runs.
    std::array<std::uint8_t, 64> cells{};
  };

  /// Injects one targeted-refresh program per collected victim row and
  /// flushes it (charged — mitigation work delays real requests).
  void flush_mitigation(EasyApi& api);
  void serve(EasyApi& api, TableEntry entry);
  /// Serves `first` plus every same-row column request drained with it.
  void serve_column_batch(EasyApi& api, TableEntry first);
  void serve_rowclone(EasyApi& api, const TableEntry& entry);
  void serve_profile(EasyApi& api, const TableEntry& entry);

  /// Error pipeline for one demand read (api.error_policy() enabled):
  /// SEC-DED decode + CE bookkeeping, bounded nominal-timing retries for
  /// UEs and unreliable reads, retirement of hard-faulted rows, and escape
  /// verification. Mutates `rb` to the data the response should carry;
  /// returns the typed verdict. `seen` is non-null when a later write in
  /// the batch replaced the line (see OverwrittenRead).
  RequestError serve_read_ecc(EasyApi& api, ErrorPolicy& ep,
                              const dram::DramAddress& addr,
                              bender::ReadbackEntry& rb,
                              const OverwrittenRead* seen);
  /// Before the write at batch position `pos` (physical row `prow`) stores
  /// its check bits: records the batch's earlier reads of the same line
  /// that no earlier write already covers as overwritten.
  void note_overwritten_reads(EasyApi& api, const ErrorPolicy& ep,
                              std::size_t pos, std::uint32_t prow);

  /// Chooses the tRCD for opening the row addressed by `a` per the Bloom
  /// filter (keyed by dram::row_key, so distinct ranks/channels never
  /// alias).
  Picoseconds trcd_for(const dram::DramAddress& a, const EasyApi& api) const;

  ControllerOptions options_;
  RequestTable table_;
  /// Per-stream arrival and attained-service counters; ATLAS/TCM/BLISS
  /// consult them via PickContext.
  StreamTable streams_;
  /// Scratch for serve_column_batch, reused across batches so the hot
  /// path never allocates.
  std::vector<TableEntry> batch_scratch_;
  /// Readbacks of the current column batch, captured before the error
  /// pipeline's retry flushes invalidate the api's readback buffer.
  std::vector<bender::ReadbackEntry> rdback_scratch_;
  /// Overwritten reads of the current column batch; empty unless the
  /// batch reads and then writes one line.
  std::vector<OverwrittenRead> overwritten_scratch_;

  /// Victim rows the mitigator asked to refresh, pending injection.
  std::vector<dram::DramAddress> pending_victims_;
  /// True while the injected refresh batch itself is being built: its
  /// ACTs must not re-enter the policy (the device's ground-truth exposure
  /// accounting still sees them and resets the victims' counters).
  bool injecting_mitigation_ = false;
};

/// The minimal Listing-1 controller: serves read requests one at a time,
/// no scheduling policy, no techniques. Used by the quickstart example and
/// as the simplest possible template for new controllers.
class SimpleReadController final : public Controller {
 public:
  bool step(EasyApi& api) override;
  bool idle() const override { return true; }
};

}  // namespace easydram::smc
