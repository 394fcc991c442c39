#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <optional>
#include <vector>

#include "common/rng.hpp"
#include "dram/device.hpp"
#include "dram/faults.hpp"
#include "smc/addr_map.hpp"
#include "smc/bloom.hpp"
#include "smc/controller.hpp"
#include "smc/easyapi.hpp"
#include "smc/ecc.hpp"
#include "sys/system.hpp"
#include "workloads/mixed.hpp"

namespace easydram {
namespace {

// --------------------------------------------------------------------------
// SEC-DED codec
// --------------------------------------------------------------------------

TEST(EccCodecTest, CleanWordsDecodeUntouched) {
  SplitMix64 sm(0xC0DEC);
  for (int i = 0; i < 256; ++i) {
    const std::uint64_t w =
        i == 0 ? 0 : i == 1 ? ~std::uint64_t{0} : i == 2 ? 1 : sm.next();
    const std::uint8_t ck = smc::EccCodec::encode(w);
    const auto d = smc::EccCodec::decode(w, ck);
    EXPECT_EQ(d.status, smc::EccStatus::kOk);
    EXPECT_EQ(d.data, w);
  }
}

TEST(EccCodecTest, CorrectsEverySingleDataBitFlip) {
  SplitMix64 sm(0x51B17);
  for (int rep = 0; rep < 8; ++rep) {
    const std::uint64_t w = sm.next();
    const std::uint8_t ck = smc::EccCodec::encode(w);
    for (int b = 0; b < 64; ++b) {
      const auto d = smc::EccCodec::decode(w ^ (std::uint64_t{1} << b), ck);
      EXPECT_EQ(d.status, smc::EccStatus::kCorrected);
      EXPECT_EQ(d.data, w);
    }
  }
}

TEST(EccCodecTest, FlaggedCheckBitFlipsLeaveDataAlone) {
  // A flip inside the stored check byte is still a single-bit codeword
  // error: reported as a CE, data returned unmodified.
  SplitMix64 sm(0xCB17);
  for (int rep = 0; rep < 8; ++rep) {
    const std::uint64_t w = sm.next();
    const std::uint8_t ck = smc::EccCodec::encode(w);
    for (int b = 0; b < 8; ++b) {
      const auto d =
          smc::EccCodec::decode(w, static_cast<std::uint8_t>(ck ^ (1u << b)));
      EXPECT_EQ(d.status, smc::EccStatus::kCorrected);
      EXPECT_EQ(d.data, w);
    }
  }
}

TEST(EccCodecTest, DetectsDoubleBitFlipsWithoutMiscorrecting) {
  SplitMix64 sm(0xD0B1E);
  for (int rep = 0; rep < 4; ++rep) {
    const std::uint64_t w = sm.next();
    const std::uint8_t ck = smc::EccCodec::encode(w);
    for (int i = 0; i < 64; i += 7) {
      for (int j = i + 1; j < 64; j += 5) {
        const auto d = smc::EccCodec::decode(
            w ^ (std::uint64_t{1} << i) ^ (std::uint64_t{1} << j), ck);
        EXPECT_EQ(d.status, smc::EccStatus::kUncorrectable);
      }
      // One data bit plus one check bit is a double-bit error too.
      const auto d = smc::EccCodec::decode(
          w ^ (std::uint64_t{1} << i), static_cast<std::uint8_t>(ck ^ 1u));
      EXPECT_EQ(d.status, smc::EccStatus::kUncorrectable);
    }
  }
}

// --------------------------------------------------------------------------
// FaultModel
// --------------------------------------------------------------------------

dram::FaultReadContext ctx_at(std::int64_t ps, std::uint32_t fbank,
                              std::uint32_t row, std::uint32_t col) {
  dram::FaultReadContext ctx;
  ctx.at = Picoseconds{ps};
  ctx.fbank = fbank;
  ctx.row = row;
  ctx.col = col;
  return ctx;
}

TEST(FaultModelTest, StuckAtForcesBitOnEveryRead) {
  dram::Geometry geo;
  dram::FaultConfig cfg;
  cfg.enabled = true;
  cfg.plan.stuck.push_back(
      {/*fbank=*/1, /*row=*/7, /*col=*/3, /*byte_in_line=*/12, /*bit=*/5,
       /*value=*/0});
  dram::FaultModel fm(geo, cfg);

  std::array<std::uint8_t, 64> line{};
  line[12] = 0xFF;
  for (int pass = 0; pass < 3; ++pass) {
    auto data = line;
    EXPECT_TRUE(fm.apply_read(ctx_at(1000 + pass, 1, 7, 3), data));
    EXPECT_EQ(data[12], 0xFF & ~(1u << 5));
    auto other = line;  // Neighboring lines stay untouched.
    EXPECT_FALSE(fm.apply_read(ctx_at(1000 + pass, 1, 8, 3), other));
    EXPECT_EQ(other, line);
  }
  // When the stored bit already matches the stuck value nothing changes —
  // a stuck cell only manifests on data that disagrees with it.
  std::array<std::uint8_t, 64> zeros{};
  EXPECT_FALSE(fm.apply_read(ctx_at(5000, 1, 7, 3), zeros));
  EXPECT_EQ(fm.faulty_reads_served(), 3);
}

TEST(FaultModelTest, ScheduledTransientFiresExactlyOnce) {
  dram::Geometry geo;
  dram::FaultConfig cfg;
  cfg.enabled = true;
  cfg.plan.transient.push_back(
      {Picoseconds{2000}, /*fbank=*/0, /*row=*/4, /*col=*/6,
       /*byte_in_line=*/20, /*xor_mask=*/0x3});
  dram::FaultModel fm(geo, cfg);

  std::array<std::uint8_t, 64> clean{};
  auto data = clean;
  EXPECT_FALSE(fm.apply_read(ctx_at(1000, 0, 4, 6), data));  // before `at`
  EXPECT_TRUE(fm.apply_read(ctx_at(2500, 0, 4, 6), data));   // first at/after
  EXPECT_EQ(data[20], 0x3);
  data = clean;
  EXPECT_FALSE(fm.apply_read(ctx_at(3000, 0, 4, 6), data));  // consumed
  EXPECT_EQ(data, clean);
}

std::vector<std::array<std::uint8_t, 64>> transient_sweep(std::uint64_t seed) {
  dram::Geometry geo;
  dram::FaultConfig cfg;
  cfg.enabled = true;
  cfg.seed = seed;
  cfg.transient_read_rate = 0.5;
  dram::FaultModel fm(geo, cfg);
  std::vector<std::array<std::uint8_t, 64>> out;
  for (std::uint32_t i = 0; i < 64; ++i) {
    std::array<std::uint8_t, 64> data{};
    fm.apply_read(ctx_at(100 + i, 0, i, 0), data);
    out.push_back(data);
  }
  return out;
}

TEST(FaultModelTest, RandomTransientsReplayUnderTheSameSeed) {
  const auto a = transient_sweep(0x5EED);
  const auto b = transient_sweep(0x5EED);
  EXPECT_EQ(a, b);  // Same seed: bit-identical draws.
  const auto c = transient_sweep(0x5EED + 1);
  EXPECT_NE(a, c);  // Different seed: a different fault pattern.
}

TEST(FaultModelTest, HammerFlipsAreStickyUntilWritten) {
  dram::Geometry geo;
  dram::FaultConfig cfg;
  cfg.enabled = true;
  cfg.hammer_flip_threshold = 32;
  cfg.hammer_flip_cells = 2;
  dram::FaultModel fm(geo, cfg);

  fm.on_hammer_act(0, 100, 31);  // Below threshold: nothing manifests.
  EXPECT_EQ(fm.faults_manifested(), 0);
  fm.on_hammer_act(0, 100, 32);  // Crossing it flips victim cells.
  EXPECT_GT(fm.faults_manifested(), 0);

  // Find the affected lines; each altered 64-bit word carries at most two
  // flipped bits, so SEC-DED always sees a clean CE or UE (never a 3+-bit
  // aliasing pattern).
  std::vector<std::uint32_t> hit;
  for (std::uint32_t col = 0; col < geo.cols_per_row(); ++col) {
    std::array<std::uint8_t, 64> data{};
    if (!fm.apply_read(ctx_at(9000, 0, 100, col), data)) continue;
    hit.push_back(col);
    for (std::size_t w = 0; w < data.size(); w += 8) {
      std::uint64_t word = 0;
      std::memcpy(&word, data.data() + w, 8);
      EXPECT_LE(std::popcount(word), 2);
    }
  }
  ASSERT_FALSE(hit.empty());

  // Sticky: a later read of the same line is altered again...
  std::array<std::uint8_t, 64> again{};
  EXPECT_TRUE(fm.apply_read(ctx_at(10000, 0, 100, hit[0]), again));
  // ...until a write restores fresh charge.
  fm.on_write(0, 100, hit[0], /*epoch=*/0);
  std::array<std::uint8_t, 64> after{};
  EXPECT_FALSE(fm.apply_read(ctx_at(11000, 0, 100, hit[0]), after));
  const std::array<std::uint8_t, 64> zeros{};
  EXPECT_EQ(after, zeros);
}

// --------------------------------------------------------------------------
// Row retirement
// --------------------------------------------------------------------------

TEST(RowRetirementTest, RemapChainsAndPerBankBudget) {
  dram::Geometry geo;
  geo.rows_per_bank = 128;
  smc::RowRetirementMap map(geo, /*spare_rows_per_bank=*/2);

  EXPECT_EQ(map.remap(3, 10), 10u);  // Identity until retired.
  EXPECT_FALSE(map.is_retired(3, 10));

  const auto s1 = map.retire(3, 10);
  ASSERT_TRUE(s1.has_value());
  EXPECT_EQ(*s1, 126u);  // Spares live at the top of the bank.
  EXPECT_EQ(map.remap(3, 10), 126u);
  EXPECT_TRUE(map.is_retired(3, 10));

  // Retiring the spare itself extends the remap chain.
  const auto s2 = map.retire(3, 126);
  ASSERT_TRUE(s2.has_value());
  EXPECT_EQ(*s2, 127u);
  EXPECT_EQ(map.remap(3, 10), 127u);

  EXPECT_TRUE(map.budget_exhausted(3));
  EXPECT_EQ(map.retire(3, 50), std::nullopt);  // Budget spent.
  EXPECT_EQ(map.retire(3, 10), std::nullopt);  // Already retired.
  EXPECT_FALSE(map.budget_exhausted(0));       // Budgets are per bank.
  EXPECT_EQ(map.rows_retired(), 2);

  EXPECT_EQ(map.note_ce(0, 5), 1);
  EXPECT_EQ(map.note_ce(0, 5), 2);
}

// --------------------------------------------------------------------------
// ErrorPolicy: check store, decode, retirement migration
// --------------------------------------------------------------------------

std::array<std::uint8_t, 64> pattern_line(std::uint64_t seed) {
  std::array<std::uint8_t, 64> data{};
  SplitMix64 sm(seed);
  for (std::size_t w = 0; w < data.size(); w += 8) {
    const std::uint64_t v = sm.next();
    std::memcpy(data.data() + w, &v, 8);
  }
  return data;
}

TEST(ErrorPolicyTest, DecodeLineCorrectsAndDetects) {
  dram::Geometry geo;
  smc::EccConfig cfg;
  cfg.enabled = true;
  smc::ErrorPolicy pol(geo, cfg);

  const auto line = pattern_line(1);
  EXPECT_FALSE(pol.line_protected(0, 5, 2));
  pol.note_write(0, 5, 2, line);
  EXPECT_TRUE(pol.line_protected(0, 5, 2));

  auto clean = line;
  EXPECT_EQ(pol.decode_line(0, 5, 2, clean), smc::EccStatus::kOk);
  EXPECT_EQ(clean, line);

  auto flipped = line;
  flipped[9] ^= 0x10;
  EXPECT_EQ(pol.decode_line(0, 5, 2, flipped), smc::EccStatus::kCorrected);
  EXPECT_EQ(flipped, line);  // Corrected in place.

  auto doubled = line;
  doubled[16] ^= 0x41;  // Two bits of one word.
  EXPECT_EQ(pol.decode_line(0, 5, 2, doubled), smc::EccStatus::kUncorrectable);

  // Never-written lines have nothing to check against and decode clean.
  auto other = line;
  EXPECT_EQ(pol.decode_line(0, 6, 2, other), smc::EccStatus::kOk);
}

TEST(ErrorPolicyTest, RetireRowMigratesDataAndChecks) {
  dram::Geometry geo;
  dram::DramDevice dev(geo, dram::ddr4_1333(), dram::VariationConfig{});
  smc::EccConfig cfg;
  cfg.enabled = true;
  smc::ErrorPolicy pol(geo, cfg);

  const std::uint32_t bank = 1;
  const std::uint32_t row = 42;
  const std::uint32_t fbank = geo.flat_bank(0, bank);
  const auto line = pattern_line(7);
  dev.backdoor_write({bank, row, /*col=*/3}, line);
  pol.note_write(fbank, row, 3, line);

  const auto spare = pol.retire_row(/*rank=*/0, bank, row, dev);
  ASSERT_TRUE(spare.has_value());
  EXPECT_EQ(*spare, geo.rows_per_bank - cfg.spare_rows_per_bank);
  EXPECT_TRUE(pol.retirement().is_retired(fbank, row));
  EXPECT_EQ(pol.retirement().remap(fbank, row), *spare);

  // Data moved to the spare, and the check bits follow the line.
  std::array<std::uint8_t, 64> out{};
  dev.backdoor_read({bank, *spare, 3}, out);
  EXPECT_EQ(out, line);
  EXPECT_TRUE(pol.line_protected(fbank, *spare, 3));
  EXPECT_FALSE(pol.line_protected(fbank, row, 3));
  EXPECT_EQ(pol.decode_line(fbank, *spare, 3, out), smc::EccStatus::kOk);

  // A CE sitting in the stored image is corrected during migration: the
  // spare holds what the check bits protect, not the corrupt copy.
  const std::uint32_t row2 = 43;
  const auto line2 = pattern_line(8);
  auto dirty = line2;
  dirty[4] ^= 0x8;
  dev.backdoor_write({bank, row2, /*col=*/5}, dirty);
  pol.note_write(fbank, row2, 5, line2);
  const auto spare2 = pol.retire_row(0, bank, row2, dev);
  ASSERT_TRUE(spare2.has_value());
  std::array<std::uint8_t, 64> migrated{};
  dev.backdoor_read({bank, *spare2, 5}, migrated);
  EXPECT_EQ(migrated, line2);
}

// --------------------------------------------------------------------------
// data_reliable propagation (reduced-tRCD verdicts survive to completions)
// --------------------------------------------------------------------------

/// An empty weak-row filter declares every row strong, so the controller
/// gambles reduced tRCD everywhere; at 5 ns the gamble loses on every row.
TEST(UnreliablePropagationTest, ReducedTrcdVerdictsAreNeverSilentlyClean) {
  sys::SystemConfig cfg = sys::jetson_nano_time_scaling();
  cfg.reduced_trcd = Picoseconds{5000};
  sys::EasyDramSystem sysm(cfg);
  sysm.install_weak_row_filter(smc::BloomFilter(64, 2));

  std::int64_t now = 100;
  std::vector<std::uint64_t> addrs;
  for (std::uint64_t i = 0; i < 24; ++i) {
    addrs.push_back(i * cfg.geometry.row_bytes);  // One line per row.
  }
  for (const std::uint64_t a : addrs) {
    sysm.wait(sysm.submit_write(a, now += 200));
  }
  int unreliable = 0;
  for (const std::uint64_t a : addrs) {
    const cpu::Completion c = sysm.wait(sysm.submit_read(a, now += 400));
    EXPECT_TRUE(c.ok);  // Without ECC the read still "succeeds"...
    if (!c.data_reliable) ++unreliable;
  }
  // ...but the device's verdict is never laundered into a clean answer.
  EXPECT_GT(unreliable, 0);
}

TEST(UnreliablePropagationTest, EccRetriesReplaceUnreliableData) {
  sys::SystemConfig cfg = sys::jetson_nano_time_scaling();
  cfg.reduced_trcd = Picoseconds{5000};
  cfg.ecc.enabled = true;
  sys::EasyDramSystem sysm(cfg);
  sysm.install_weak_row_filter(smc::BloomFilter(64, 2));

  std::int64_t now = 100;
  std::vector<std::uint64_t> addrs;
  for (std::uint64_t i = 0; i < 24; ++i) {
    addrs.push_back(i * cfg.geometry.row_bytes);
  }
  for (const std::uint64_t a : addrs) {
    sysm.wait(sysm.submit_write(a, now += 200));
  }
  for (const std::uint64_t a : addrs) {
    const cpu::Completion c = sysm.wait(sysm.submit_read(a, now += 400));
    // With the error pipeline on, an unreliable read is retried at nominal
    // timing: an ok completion always carries reliable data, and anything
    // unrecoverable fails with a typed error instead.
    if (c.ok) {
      EXPECT_TRUE(c.data_reliable);
    } else {
      EXPECT_NE(c.error, RequestError::kNone);
    }
  }
  EXPECT_GT(sysm.smc_stats().retries_issued, 0);
}

// --------------------------------------------------------------------------
// Check bits in batch order
// --------------------------------------------------------------------------

/// Two stream-copy tenants whose footprints overlap: tenant 1 reads the
/// lines tenant 0 writes, so a row batch can hold a read and a later write
/// of the same line.
smc::ApiStats run_overlapping_tenants(const sys::SystemConfig& cfg) {
  std::vector<workloads::TenantSpec> tenants(2);
  for (std::size_t i = 0; i < tenants.size(); ++i) {
    tenants[i].kind = workloads::TenantKind::kStreamCopy;
    tenants[i].stream = static_cast<std::uint32_t>(i);
    tenants[i].base_addr = i * 1024 * 1024;
    tenants[i].footprint_bytes = 2 * 1024 * 1024;
    tenants[i].passes = 2;
  }
  const smc::LinearMapper mapper(cfg.geometry);
  cpu::VectorTrace trace(workloads::make_mixed_trace(tenants, mapper).interleaved);
  sys::EasyDramSystem sysm(cfg);
  sysm.run(trace);
  return sysm.smc_stats();
}

sys::SystemConfig ecc_with_faults(double transient_read_rate) {
  sys::SystemConfig cfg = sys::jetson_nano_time_scaling();
  cfg.ecc.enabled = true;
  cfg.faults.enabled = true;
  cfg.faults.transient_read_rate = transient_read_rate;
  return cfg;
}

/// No fault is ever injected, so every read must decode clean against the
/// check bits of the data it returned. Decoding a read against a later
/// write's check bits turns it into a retried UE, and one such decode
/// used to miscorrect into a silent escape.
TEST(EccBatchOrderTest, ReadBeforeSameLineWriteInOneBatchDecodesClean) {
  const smc::ApiStats stats = run_overlapping_tenants(ecc_with_faults(0.0));
  EXPECT_GT(stats.responses_sent, 0);
  EXPECT_EQ(stats.retries_issued, 0);
  EXPECT_EQ(stats.ecc_corrected, 0);
  EXPECT_EQ(stats.ecc_uncorrectable, 0);
  EXPECT_EQ(stats.ecc_escaped, 0);
}

/// One ECC-on controller with a fault model, driven directly so a test can
/// queue a read and a write of one row into a single column batch.
struct EccController {
  explicit EccController(const smc::EccConfig& ecc, const dram::FaultPlan& plan = {})
      : device(geo, dram::ddr4_1333(), dram::VariationConfig{}),
        tile(tile::TileConfig{}),
        mapper(geo),
        keeper(timescale::SystemMode::kTimeScaling,
               timescale::DomainConfig{Frequency::megahertz(100),
                                       Frequency::gigahertz(1)},
               Frequency::megahertz(100), Cycles{24}),
        api(tile, device, mapper, keeper),
        policy(geo, ecc),
        controller(smc::ControllerOptions{}) {
    api.set_error_policy(&policy);
    dram::FaultConfig faults;
    faults.enabled = true;
    faults.plan = plan;
    device.install_fault_model(faults);
  }

  /// Queues all of `reqs` at once (one row's requests then share a batch)
  /// and returns the responses in the order they were sent.
  std::vector<tile::Response> serve(std::vector<tile::Request> reqs) {
    const std::size_t n = reqs.size();
    for (tile::Request& r : reqs) {
      r.arrival_wall = keeper.wall();
      tile.incoming().push(std::move(r));
    }
    std::vector<tile::Response> out;
    for (int i = 0; i < 10000 && out.size() < n; ++i) {
      controller.step(api);
      while (!tile.outgoing().empty()) out.push_back(tile.outgoing().pop());
    }
    EXPECT_EQ(out.size(), n);
    return out;
  }

  dram::Geometry geo;
  dram::DramDevice device;
  tile::EasyTile tile;
  smc::LinearMapper mapper;
  timescale::TimeKeeper keeper;
  smc::EasyApi api;
  smc::ErrorPolicy policy;
  smc::MemoryController controller;
};

tile::Request read_req(std::uint64_t id, std::uint64_t paddr) {
  tile::Request r;
  r.id = id;
  r.kind = tile::RequestKind::kRead;
  r.paddr = paddr;
  return r;
}

tile::Request write_req(std::uint64_t id, std::uint64_t paddr, std::uint8_t fill) {
  tile::Request r = read_req(id, paddr);
  r.kind = tile::RequestKind::kWrite;
  r.wdata.fill(fill);
  return r;
}

/// The response to request `id`, whose data lines must all be `fill`.
void expect_read(const std::vector<tile::Response>& resps, std::uint64_t id,
                 std::uint8_t fill) {
  for (const tile::Response& r : resps) {
    if (r.id != id) continue;
    EXPECT_TRUE(r.ok) << "read " << id;
    EXPECT_EQ(r.error, RequestError::kNone) << "read " << id;
    ASSERT_TRUE(r.has_data) << "read " << id;
    for (const std::uint8_t b : r.data) ASSERT_EQ(b, fill) << "read " << id;
    return;
  }
  ADD_FAILURE() << "no response to " << id;
}

// Lines 0, 64 and 128 are columns 0-2 of one row under the linear mapper.

TEST(EccBatchOrderTest, OverwrittenReadReturnsAndAuditsTheCellsItRead) {
  EccController h{smc::EccConfig{.enabled = true}};
  h.serve({write_req(1, 0, 0x11)});
  const auto resps = h.serve({read_req(2, 0), write_req(3, 0, 0x22)});
  expect_read(resps, 2, 0x11);
  EXPECT_EQ(h.api.stats().retries_issued, 0);
  EXPECT_EQ(h.api.stats().ecc_corrected, 0);
  EXPECT_EQ(h.api.stats().ecc_escaped, 0);
  // The write's check bits are the ones stored.
  expect_read(h.serve({read_req(4, 0)}), 4, 0x22);
}

TEST(EccBatchOrderTest, RetryAfterTheBatchDecodesAgainstTheLatestCheckBits) {
  // A double-bit upset on the batch's read: a UE against the check bits
  // it saw, so the line is re-read after the batch, when it holds the
  // later write's data.
  dram::FaultPlan plan;
  plan.transient.push_back({Picoseconds{0}, 0, 0, 0, /*byte_in_line=*/0,
                            /*xor_mask=*/0x3});
  EccController h{smc::EccConfig{.enabled = true}, plan};
  h.serve({write_req(1, 0, 0x11)});
  const auto resps = h.serve({read_req(2, 0), write_req(3, 0, 0x22)});
  expect_read(resps, 2, 0x22);
  EXPECT_EQ(h.api.stats().retries_issued, 1);
  EXPECT_EQ(h.api.stats().ecc_uncorrectable, 0);
  EXPECT_EQ(h.api.stats().rows_retired, 0);
  EXPECT_EQ(h.api.stats().ecc_escaped, 0);
}

TEST(EccBatchOrderTest, RetirementMigratesTheBatchsLaterWrites) {
  // A single-bit upset on the batch's read of line 0 retires the row
  // (threshold 1) after the batch ran. The batch's later writes, a rewrite
  // of line 64 and a first write of line 128, must reach the spare row
  // with their own check bits.
  dram::FaultPlan plan;
  plan.transient.push_back({Picoseconds{0}, 0, 0, 0, /*byte_in_line=*/0,
                            /*xor_mask=*/0x1});
  EccController h{smc::EccConfig{.enabled = true, .ce_retire_threshold = 1}, plan};
  h.serve({write_req(1, 0, 0x55), write_req(2, 64, 0x11)});
  const auto resps = h.serve(
      {read_req(3, 0), write_req(4, 64, 0x22), write_req(5, 128, 0x33)});
  expect_read(resps, 3, 0x55);
  EXPECT_EQ(h.api.stats().ecc_corrected, 1);
  EXPECT_EQ(h.api.stats().rows_retired, 1);
  EXPECT_NE(h.policy.retirement().remap(0, 0), 0u);

  const auto after = h.serve({read_req(6, 0), read_req(7, 64), read_req(8, 128)});
  expect_read(after, 6, 0x55);
  expect_read(after, 7, 0x22);
  expect_read(after, 8, 0x33);
  EXPECT_EQ(h.api.stats().ecc_corrected, 1);
  EXPECT_EQ(h.api.stats().ecc_uncorrectable, 0);
  EXPECT_EQ(h.api.stats().ecc_escaped, 0);
}

}  // namespace
}  // namespace easydram
